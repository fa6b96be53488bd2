#include "core/commthread.h"

#include "core/env.h"
#include "hw/cnk.h"
#include "hw/l2_atomics.h"

namespace pamix::pami {

namespace {
/// Default spin window before arming the wakeup unit. Long enough to ride
/// out a ping-pong turnaround without a futex round trip on dedicated
/// hardware threads; the window polls through a hw::Waiter, so on a
/// shared core it yields rather than holding the core for the window.
constexpr int kDefaultSpinUs = 100;
}  // namespace

CommThreadPool::CommThreadPool(Client& client, int count, int context_limit)
    : client_(client) {
  spin_us_ = core::env_int_or("PAMIX_COMM_SPIN_US", kDefaultSpinUs, 0, 1000000);
  hw::HwThreadMap& hwmap = client_.node().hw_threads();
  hw::WakeupUnit& wakeup = client_.node().wakeup();
  int nctx = client_.context_count();
  if (context_limit >= 0 && context_limit < nctx) nctx = context_limit;
  if (nctx == 0) return;  // every context is endpoint-owned
  // Distribute contexts round-robin over however many threads we can bind.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < count; ++i) {
    auto slot = hwmap.claim_commthread(client_.local_proc());
    if (!slot.has_value()) break;  // node out of hardware threads
    auto w = std::make_unique<Worker>();
    w->hw_thread = *slot;
    // tid 64+i keeps commthread tracks clear of context tracks (tid =
    // context offset) in the merged chrome trace.
    w->obs = &obs::Registry::instance().create(
        "task" + std::to_string(client_.task()) + ".commthr" + std::to_string(i),
        client_.task(), 64 + i);
    w->obs->pvars.add(obs::Pvar::ConfigCommSpinUs,
                      static_cast<std::uint64_t>(spin_us_));
    workers.push_back(std::move(w));
  }
  if (workers.empty()) return;
  for (int c = 0; c < nctx; ++c) {
    workers[static_cast<std::size_t>(c) % workers.size()]->contexts.push_back(
        &client_.context(c));
  }
  for (auto& w : workers) {
    // One watch per context, all feeding one shared WaitSlot (the hardware
    // thread sleeps once over all of its WAC registers), plus a doorbell
    // watch for the latency-sensitive handoff store. Each covered context
    // learns its watch handle so Context::unlock can re-ring it when work
    // is left behind.
    w->slot = wakeup.create_wait_slot();
    for (Context* ctx : w->contexts) {
      const hw::WakeupUnit::WatchHandle h = wakeup.watch_many(ctx->wakeup_ranges(), w->slot);
      w->ctx_watches.push_back(h);
      ctx->set_comm_watch(&wakeup, h);
    }
    w->doorbell_watch = wakeup.watch(&w->doorbell, sizeof(w->doorbell), w->slot);
    threads_.push_back(std::move(w));
  }
  for (auto& w : threads_) {
    Worker* wp = w.get();
    w->thread = std::thread([this, wp] { run(*wp); });
  }
}

CommThreadPool::~CommThreadPool() { stop(); }

void CommThreadPool::stop() {
  if (stopping_.exchange(true)) return;
  for (auto& w : threads_) client_.node().wakeup().notify_watch(w->doorbell_watch);
  for (auto& w : threads_) {
    if (w->thread.joinable()) w->thread.join();
    client_.node().hw_threads().release(w->hw_thread);
    for (Context* ctx : w->contexts) ctx->clear_comm_watch();
  }
}

void CommThreadPool::ring_doorbell(const Context* ctx) {
  for (auto& w : threads_) {
    for (const Context* c : w->contexts) {
      if (c != ctx) continue;
      // Only a sleeping worker needs the bell: an awake one's next sweep
      // sees the posted work, and one arming concurrently re-checks after
      // publishing asleep, so skipping here can never lose the handoff.
      if (!w->asleep.load(std::memory_order_seq_cst)) return;
      // The store into the watched doorbell word, then the snooped-write
      // notification the hardware would raise for it.
      w->doorbell.fetch_add(1, std::memory_order_relaxed);
      client_.node().wakeup().notify_write(&w->doorbell);
      return;
    }
  }
}

std::uint64_t CommThreadPool::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& w : threads_) n += w->counters.events.load(std::memory_order_relaxed);
  return n;
}
std::uint64_t CommThreadPool::sleeps() const {
  std::uint64_t n = 0;
  for (const auto& w : threads_) n += w->counters.sleeps.load(std::memory_order_relaxed);
  return n;
}
std::uint64_t CommThreadPool::sleep_timeouts() const {
  std::uint64_t n = 0;
  for (const auto& w : threads_) n += w->counters.timeouts.load(std::memory_order_relaxed);
  return n;
}
std::uint64_t CommThreadPool::fast_wakes() const {
  std::uint64_t n = 0;
  for (const auto& w : threads_) n += w->counters.fast_wakes.load(std::memory_order_relaxed);
  return n;
}
std::uint64_t CommThreadPool::spin_iters() const {
  std::uint64_t n = 0;
  for (const auto& w : threads_) n += w->counters.spin_iters.load(std::memory_order_relaxed);
  return n;
}

bool CommThreadPool::unmuted_work(const Worker& w) const {
  hw::WakeupUnit& wakeup = client_.node().wakeup();
  for (std::size_t i = 0; i < w.contexts.size(); ++i) {
    // A muted watch means a blocking caller owns this context's progress
    // for the moment (paper §V steal window).
    if (!w.contexts[i]->idle() && !wakeup.muted(w.ctx_watches[i])) return true;
  }
  return false;
}

std::size_t CommThreadPool::advance_one(Worker& w, Context& ctx) {
  if (!ctx.trylock()) {
    // The lock holder is advancing (or will re-ring our watch from
    // unlock if it leaves work behind), so losing the trylock never
    // strands the context.
    w.obs->pvars.add(obs::Pvar::CommLockMisses);
    return 0;
  }
  // Honest priority ceiling: CommHighest spans exactly one context's
  // advance (the "cannot be preempted mid-operation" band), never a whole
  // sweep, and a zero-event sweep of idle contexts makes no priority
  // transitions at all.
  hw::HwThreadMap& hwmap = client_.node().hw_threads();
  hwmap.set_priority(w.hw_thread, hw::ThreadPriority::CommHighest);
  const std::size_t events = ctx.advance();
  ctx.unlock();
  hwmap.set_priority(w.hw_thread, hw::ThreadPriority::CommLowest);
  return events;
}

std::size_t CommThreadPool::sweep(Worker& w) {
  std::size_t events = 0;
  for (Context* ctx : w.contexts) {
    if (ctx->idle()) continue;  // no lock, no priority traffic
    events += advance_one(w, *ctx);
  }
  return events;
}

void CommThreadPool::run(Worker& w) {
  hw::WakeupUnit& wakeup = client_.node().wakeup();
  if (w.contexts.empty()) {
    // Nothing to advance: park in bounded ticks until stop() rings the
    // doorbell. Not counted as sleeps/timeouts — structurally idle.
    while (!stopping_.load(std::memory_order_acquire)) {
      const std::uint64_t armed = wakeup.arm_slot(*w.slot);
      if (stopping_.load(std::memory_order_acquire)) break;
      wakeup.wait_slot(*w.slot, armed, std::chrono::milliseconds(50));
    }
    return;
  }
  const std::uint64_t spin_ns = static_cast<std::uint64_t>(spin_us_) * 1000;
  std::vector<std::uint64_t> armed(w.ctx_watches.size(), 0);
  std::uint64_t spin_deadline = 0;  // obs::now_ns() units
  std::uint64_t spin_t0 = 0;        // start of the current spin span
  hw::Waiter waiter;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::size_t events = sweep(w);
    if (events > 0) {
      w.counters.events.fetch_add(events, std::memory_order_relaxed);
      spin_deadline = obs::now_ns() + spin_ns;
      spin_t0 = 0;
      waiter.reset();
      continue;
    }
    // SPIN: a zero-event sweep inside the window keeps polling the cheap
    // idle predicates — a store landing here is picked up with no wakeup-
    // unit round trip.
    const std::uint64_t now = obs::now_ns();
    if (now < spin_deadline) {
      if (spin_t0 == 0) spin_t0 = now;
      w.counters.spin_iters.fetch_add(1, std::memory_order_relaxed);
      w.obs->pvars.add(obs::Pvar::CommSpinIters);
      waiter.pause();
      continue;
    }
    if (spin_t0 != 0) {
      w.obs->trace.record_span(obs::TraceEv::CommSpin, spin_t0);
      spin_t0 = 0;
    }
    // BACKLOG: a context still not idle after a zero-event sweep (a
    // descriptor queued behind a full remote reception FIFO) writes
    // nothing this worker watches when it frees up, and our own unlock
    // re-rings its watch, so a sleep would fall straight through. Poll.
    if (unmuted_work(w)) {
      waiter.pause();
      continue;
    }
    // SLEEP: publish asleep (so producers start paying for the doorbell),
    // arm the slot, snapshot every per-context watch plus the doorbell,
    // re-check, park — the lost-wakeup-free ordering. A store after any
    // arm flips that watch's epoch and the slot's, so the wait below
    // falls straight through.
    w.asleep.store(true, std::memory_order_seq_cst);
    const std::uint64_t slot_armed = wakeup.arm_slot(*w.slot);
    for (std::size_t i = 0; i < w.ctx_watches.size(); ++i) {
      armed[i] = wakeup.arm(w.ctx_watches[i]);
    }
    const std::uint64_t bell_armed = wakeup.arm(w.doorbell_watch);
    events = sweep(w);
    if (events > 0) {
      w.asleep.store(false, std::memory_order_relaxed);
      w.counters.events.fetch_add(events, std::memory_order_relaxed);
      spin_deadline = obs::now_ns() + spin_ns;
      waiter.reset();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    w.counters.sleeps.fetch_add(1, std::memory_order_relaxed);
    w.obs->pvars.add(obs::Pvar::CommSleeps);
    const std::uint64_t sleep_t0 = obs::now_ns();
    const bool woken = wakeup.wait_slot(*w.slot, slot_armed, std::chrono::milliseconds(50));
    w.asleep.store(false, std::memory_order_relaxed);
    w.obs->pvars.add(obs::Pvar::CommWakeups);
    w.obs->trace.record_span(obs::TraceEv::CommSleep, sleep_t0);
    w.obs->trace.record(obs::TraceEv::CommWake);
    waiter.reset();
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!woken) {
      // Deadline expiry with no notify. Expiring *with work pending* means
      // a producer stored into a watched region without the epoch moving —
      // an arm/notify ordering bug; the counter is the detector (tests and
      // benches assert it stays ~0). Expiring idle, or with only muted
      // contexts pending, is just a bounded-sleep re-arm and counts nothing.
      if (unmuted_work(w)) {
        w.counters.timeouts.fetch_add(1, std::memory_order_relaxed);
        w.obs->pvars.add(obs::Pvar::CommSleepTimeouts);
      }
      continue;
    }
    if (wakeup.arm(w.doorbell_watch) != bell_armed) {
      w.counters.fast_wakes.fetch_add(1, std::memory_order_relaxed);
      w.obs->pvars.add(obs::Pvar::CommFastWakes);
      w.obs->trace.record(obs::TraceEv::CommFastWake);
    }
    // The wake names which context(s) fired: advance exactly those, not
    // the whole set. The next sweep's idle-skip backstops doorbell-only
    // wakes and trylock losses.
    std::size_t targeted = 0;
    for (std::size_t i = 0; i < w.ctx_watches.size(); ++i) {
      if (wakeup.arm(w.ctx_watches[i]) == armed[i]) continue;
      targeted += advance_one(w, *w.contexts[i]);
    }
    if (targeted > 0) {
      w.counters.events.fetch_add(targeted, std::memory_order_relaxed);
      spin_deadline = obs::now_ns() + spin_ns;
    }
  }
}

}  // namespace pamix::pami

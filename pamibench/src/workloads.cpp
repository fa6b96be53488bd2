// The four pamibench workloads. Each is a closed loop over the shipped
// public API (runtime::Machine, mpi::MpiWorld/Mpi, pami::ClientWorld/
// Context, am::Engine), driven by one process, in the library's default
// configuration. Every op's output is checked inside the timed loop.
//
//   mpi-pingpong   2 tasks, THREAD_SINGLE, blocking 8-byte send/recv
//   mpi-stream     2 tasks + 1 commthread each, isend/irecv windows
//   am-rpc         2 tasks x 2 contexts, echo RPC through am::Engine
//   coll-allreduce 2 nodes x 2 ppn, world / 1 MB / split-comm allreduces
//
// See README.md for why each exists and what one op is.
#include <cstring>
#include <mutex>
#include <set>

#include "am/engine.h"
#include "core/client.h"
#include "core/context.h"
#include "harness.h"
#include "mpi/mpi.h"
#include "runtime/machine.h"

namespace pamibench {

using namespace pamix;

namespace {

// --------------------------------------------------------------- shared ---

constexpr double kWarmupSeconds = 0.3;
constexpr double kTracedMaxSeconds = 5;

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Deadline deadline_after(double seconds, const Tracer* tracer) {
  return Deadline{now_ns() + static_cast<std::uint64_t>(seconds * 1e9), tracer};
}

/// Brackets one measured phase on every task: the registry snapshot and the
/// start time are taken while all tasks wait, the phase ends when the last
/// task finishes its own work.
class PhaseClock {
 public:
  explicit PhaseClock(int tasks) : bar_(tasks) {}

  template <typename Idle>
  void begin(int task, mpi::Mpi* mp, Idle&& idle) {
    bar_.wait(idle);
    if (task == 0) {
      before_ = read_counters();
      end_ns_.store(0);
      unexpected_.store(0);
      received_.store(0);
    }
    bar_.wait(idle);
    if (mp != nullptr) {
      unexpected_.fetch_sub(mp->unexpected_messages());
      received_.fetch_sub(mp->unexpected_messages() + mp->posted_receives_matched());
    }
    if (task == 0) begin_ns_ = now_ns();
  }

  /// `done_ns`: when this task finished its share of the phase.
  template <typename Idle>
  void end(int task, mpi::Mpi* mp, std::uint64_t done_ns, Phase& ph, Idle&& idle) {
    atomic_max(end_ns_, done_ns);
    bar_.wait(idle);
    if (mp != nullptr) {
      unexpected_.fetch_add(mp->unexpected_messages());
      received_.fetch_add(mp->unexpected_messages() + mp->posted_receives_matched());
    }
    bar_.wait(idle);
    if (task == 0) {
      ph.delta = read_counters() - before_;
      ph.seconds = static_cast<double>(end_ns_.load() - begin_ns_) * 1e-9;
      ph.mpi_unexpected = unexpected_.load();
      ph.mpi_received = received_.load();
    }
  }
  void begin(int task, mpi::Mpi* mp) {
    begin(task, mp, [] {});
  }
  void end(int task, mpi::Mpi* mp, std::uint64_t done_ns, Phase& ph) {
    end(task, mp, done_ns, ph, [] {});
  }
  SpinBarrier& barrier() { return bar_; }

 private:
  SpinBarrier bar_;
  Counters before_;
  std::uint64_t begin_ns_ = 0;
  std::atomic<std::uint64_t> end_ns_{0};
  std::atomic<std::uint64_t> unexpected_{0};
  std::atomic<std::uint64_t> received_{0};
};

/// Set-up bookkeeping shared by the workloads: the slowest task's init
/// and the moment the last task could start its first op.
struct SetupClock {
  std::uint64_t t0 = now_ns();
  std::atomic<std::uint64_t> init_max{0};
  std::atomic<std::uint64_t> ready_max{0};
  void task_ready(std::uint64_t init_begin, std::uint64_t init_end) {
    atomic_max(init_max, init_end - init_begin);
    atomic_max(ready_max, now_ns());
  }
  void finish(Setup& s) const {
    s.init_ns = init_max.load();
    s.total_ns = ready_max.load() - t0;
  }
};

/// Commthread work a phase shows: worker sweeps, sleeps and wakes, and the
/// blocking-call steals and inline sends of the commthread handoff policy.
std::uint64_t commthread_activity(const obs::PvarSnapshot& d) {
  return d[obs::Pvar::CommWakeups] + d[obs::Pvar::CommSleeps] + d[obs::Pvar::CommSpinIters] +
         d[obs::Pvar::CommSteals] + d[obs::Pvar::CommInlineSends];
}

SpanRecorder* recorder(Tracer* tr, int thread) {
  return tr != nullptr ? tr->at(thread) : nullptr;
}

/// Runs on every task: warm-up, the untraced slices, then (with a tracer)
/// the traced phase. `phase(ph, deadline, recorder)` runs one phase of the
/// workload's loop and fills `ph` (on task 0).
template <typename PhaseFn>
void measure(const RunConfig& rc, Cycle& cy, int task, PhaseFn&& phase) {
  if (task == 0) set_phase("warm-up");
  phase(cy.warmup, deadline_after(kWarmupSeconds, nullptr), nullptr);
  if (task == 0) set_phase("measured");
  for (Phase& ph : cy.slices) phase(ph, deadline_after(rc.seconds / kSlices, nullptr), nullptr);
  if (rc.tracer != nullptr) {
    if (task == 0) set_phase("traced");
    phase(cy.traced, deadline_after(std::min(rc.seconds, kTracedMaxSeconds), rc.tracer),
          recorder(rc.tracer, task));
  }
}

// --------------------------------------------------------- mpi-pingpong ---
//
// Task 0 sends an 8-byte value derived from (seed, round); task 1 checks it
// and answers with its complement, which task 0 checks. The stop marker
// ends a phase. One op is one round trip; its latency is reported halved
// (the half-round-trip convention of the paper's Table 2).

constexpr int kPingTag = 7;
constexpr std::uint64_t kStopMarker = ~0ull;

std::uint64_t ping_value(std::uint64_t seed, std::uint64_t round) {
  const std::uint64_t v = mix(seed ^ 0x70696e67ull, round);
  return v == kStopMarker ? 0 : v;
}

std::uint64_t pingpong_plan_hash(std::uint64_t seed) {
  PlanHash h;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    h.add(8);  // bytes
    h.add(1);  // target task
    h.add(ping_value(seed, i));
  }
  return h.value();
}

Cycle run_pingpong(const RunConfig& rc) {
  Cycle cy;
  if (rc.measure) cy.slices.resize(kSlices);
  SetupClock sc;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  const std::uint64_t t1 = now_ns();
  mpi::MpiWorld world(machine);
  cy.setup.machine_ns = t1 - sc.t0;
  cy.setup.world_ns = now_ns() - t1;

  PhaseClock clock(2);
  std::atomic<std::uint64_t> server_bad{0};
  std::atomic<bool> commthreads{false};

  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    const std::uint64_t ib = now_ns();
    mp.init(mpi::ThreadLevel::Single);
    sc.task_ready(ib, now_ns());
    const mpi::Comm w = mp.world();
    if (mp.commthreads_active()) commthreads.store(true);
    clock.barrier().wait();
    if (rc.measure) {
      std::uint64_t round = 0;  // continues across phases so values never repeat
      Beat& hb = beat(task);
      LatencyLog log;

      // One phase of the loop; returns when task 0 sends the stop marker.
      auto phase = [&](Phase& ph, const Deadline& dl, SpanRecorder* rec) {
        clock.begin(task, &mp);
        std::uint64_t rounds = 0, bad = 0, in = 0, out = 0;
        log.clear();
        if (task == 0) {
          std::uint64_t t = now_ns();
          for (;; ++round) {
            const bool stop = dl.reached(t);
            out = stop ? kStopMarker : ping_value(rc.seed, round);
            Scope op(rec, SpanName::Op, static_cast<std::uint32_t>(round));
            hb.issued.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t t0 = now_ns();
            {
              Scope s(rec, SpanName::MpiSend, static_cast<std::uint32_t>(round));
              mp.send(&out, sizeof out, 1, kPingTag, w);
            }
            if (stop) break;
            mpi::Status st;
            {
              Scope s(rec, SpanName::MpiRecv, static_cast<std::uint32_t>(round));
              mp.recv(&in, sizeof in, 1, kPingTag, w, &st);
            }
            t = now_ns();
            if (in != ~out || st.bytes != sizeof in || st.source != 1) ++bad;
            log.add(t - t0);
            ++rounds;
            hb.done.fetch_add(1, std::memory_order_relaxed);
          }
          hb.done.fetch_add(1, std::memory_order_relaxed);  // the stop marker
        } else {
          for (;; ++round) {
            Scope op(rec, SpanName::Op, static_cast<std::uint32_t>(round));
            mpi::Status st;
            {
              Scope s(rec, SpanName::MpiRecv, static_cast<std::uint32_t>(round));
              mp.recv(&in, sizeof in, 0, kPingTag, w, &st);
            }
            if (in == kStopMarker) break;
            if (in != ping_value(rc.seed, round) || st.bytes != sizeof in) ++bad;
            out = ~in;
            Scope s(rec, SpanName::MpiSend, static_cast<std::uint32_t>(round));
            mp.send(&out, sizeof out, 0, kPingTag, w);
          }
          server_bad.store(bad);
        }
        const std::uint64_t done = now_ns();
        clock.end(task, &mp, done, ph);
        if (task == 0) {
          ph.attempted = rounds;
          ph.failed = bad + server_bad.load();
          ph.payload_bytes = rounds * 2 * sizeof(std::uint64_t);
          ph.latency = log.samples();
          ph.lead_ops = rounds;
          ph.ns_per_unit = 0.5;  // round trip -> half round trip
        }
      };

      measure(rc, cy, task, phase);
    }
    mp.finalize();
  });
  sc.finish(cy.setup);
  if (rc.measure) {
    const auto d = total(cy.slices).delta.sw;
    cy.checks.push_back({"proto.sends.rdzv == 0", d[obs::Pvar::SendsRdzv] == 0});
    cy.checks.push_back({"no commthreads", !commthreads.load()});
    cy.checks.push_back({"no commthread activity", commthread_activity(d) == 0});
  }
  return cy;
}

// ----------------------------------------------------------- mpi-stream ---
//
// Task 0 streams windows of kStreamWindow isends (then waitall, then waits
// for task 1's ack); task 1 keeps the next window's irecvs posted before it
// acks. Each window holds a fixed mix: kRdzvPerWindow rendezvous messages
// (64-256 KB) and the rest eager (<= 4 KB), sizes and positions drawn from
// the seed. Payloads are a seed- and slot-derived pattern with the
// window number stamped at both ends; task 1 checks every byte. Task 1's
// landing buffers start poisoned and every received range is poisoned
// again after its check, so a byte that never arrives fails. The ack
// carries the window number and, in its top bit, task 1's stop decision.
// One op is one message delivered and verified; its latency runs from the
// sender's isend to the receiver's waitall return.

constexpr int kStreamWindow = 32;
constexpr int kRdzvPerWindow = 3;
constexpr std::size_t kEagerMax = 4096;
constexpr std::size_t kRdzvMin = 64 * 1024;
constexpr std::size_t kRdzvMax = 256 * 1024;
constexpr int kStreamPlanWindows = 128;
constexpr int kAckTag = 1000;

/// Sizes of kStreamPlanWindows windows; each window has the same mix, its
/// sizes drawn per stratum so every seed moves the same bytes on average.
std::vector<std::uint32_t> stream_plan(std::uint64_t seed) {
  Rng r(seed ^ 0x73747265616dull);
  std::vector<std::uint32_t> sizes;
  constexpr int kEager = kStreamWindow - kRdzvPerWindow;
  for (int w = 0; w < kStreamPlanWindows; ++w) {
    std::vector<std::uint32_t> win;
    for (int k = 0; k < kEager; ++k) {
      win.push_back(static_cast<std::uint32_t>(
          r.range(k * kEagerMax / kEager, (k + 1) * kEagerMax / kEager)));
    }
    const std::size_t span = (kRdzvMax - kRdzvMin) / kRdzvPerWindow;
    for (int k = 0; k < kRdzvPerWindow; ++k) {
      win.push_back(static_cast<std::uint32_t>(
          r.range(kRdzvMin + k * span, kRdzvMin + (k + 1) * span)));
    }
    for (int i = kStreamWindow - 1; i > 0; --i) {  // seeded shuffle
      std::swap(win[static_cast<std::size_t>(i)], win[r.next() % (i + 1)]);
    }
    sizes.insert(sizes.end(), win.begin(), win.end());
  }
  return sizes;
}

std::uint64_t stream_plan_hash(std::uint64_t seed) {
  PlanHash h;
  for (std::uint32_t s : stream_plan(seed)) {
    h.add(s);
    h.add(1);
  }
  return h.value();
}

/// The pattern slot `s` carries (before the window stamps).
void fill_slot_pattern(std::uint64_t seed, int s, std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = mix(seed ^ 0x736c6f74ull, (static_cast<std::uint64_t>(s) << 32) | i);
    std::memcpy(p + i, &v, std::min<std::size_t>(8, n - i));
  }
}

/// Fill byte of the receiver's landing buffers before each receive.
constexpr std::byte kPoison{0xa5};

/// Window stamps written over the first (and, for >= 16 bytes, last) 8
/// bytes of a message, so a byte left over from another window shows.
void stamp_message(std::byte* p, std::size_t n, std::uint64_t head, std::uint64_t tail) {
  std::memcpy(p, &head, std::min<std::size_t>(8, n));
  if (n >= 16) std::memcpy(p + n - 8, &tail, 8);
}

bool check_message(const std::byte* got, const std::byte* pattern, std::size_t n,
                   std::uint64_t head, std::uint64_t tail) {
  const std::size_t h = std::min<std::size_t>(8, n);
  const std::size_t t = n >= 16 ? 8 : 0;
  if (std::memcmp(got, &head, h) != 0) return false;
  if (t != 0 && std::memcmp(got + n - 8, &tail, 8) != 0) return false;
  return n <= h + t || std::memcmp(got + h, pattern + h, n - h - t) == 0;
}

Cycle run_stream(const RunConfig& rc) {
  Cycle cy;
  if (rc.measure) cy.slices.resize(kSlices);
  const std::vector<std::uint32_t> plan = stream_plan(rc.seed);
  SetupClock sc;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  const std::uint64_t t1 = now_ns();
  mpi::MpiConfig cfg;
  cfg.commthread_count = 1;  // 2 tasks + 2 commthreads = 4 threads
  mpi::MpiWorld world(machine, cfg);
  cy.setup.machine_ns = t1 - sc.t0;
  cy.setup.world_ns = now_ns() - t1;

  PhaseClock clock(2);
  std::vector<std::atomic<std::uint64_t>> posted_at(kStreamWindow);
  std::atomic<int> commthreads{0};
  std::atomic<std::uint64_t> recv_bad{0}, recv_msgs{0}, recv_bytes{0}, ack_bad{0};
  std::mutex lat_mu;
  std::vector<std::uint32_t> lat_out;

  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    const std::uint64_t ib = now_ns();
    mp.init(mpi::ThreadLevel::Multiple);
    sc.task_ready(ib, now_ns());
    commthreads.fetch_add(mp.commthread_count());
    const mpi::Comm w = mp.world();
    clock.barrier().wait();
    if (rc.measure) {
      // Each task's copy of the pristine pattern, and the slot buffers: the
      // sender's payloads carry the pattern, the receiver's landing zones
      // start poisoned.
      std::vector<std::byte> expect(kStreamWindow * kRdzvMax);
      for (int s = 0; s < kStreamWindow; ++s) {
        fill_slot_pattern(rc.seed, s, expect.data() + s * kRdzvMax, kRdzvMax);
      }
      std::vector<std::byte> bufs =
          task == 0 ? expect : std::vector<std::byte>(expect.size(), kPoison);
      std::vector<mpi::Request> reqs;
      reqs.reserve(kStreamWindow);
      LatencyLog log;
      Beat& hb = beat(task);
      std::uint64_t window = 0;  // continues across phases
      auto size_of = [&](std::uint64_t win, int s) -> std::size_t {
        return plan[(win * kStreamWindow + static_cast<std::uint64_t>(s)) % plan.size()];
      };
      auto head_stamp = [&](std::uint64_t win, int s) { return mix(rc.seed, win) ^ s; };
      auto tail_stamp = [&](std::uint64_t win, int s) { return ~mix(rc.seed, win) ^ s; };
      auto post_window = [&](std::uint64_t win, SpanRecorder* rec) {
        for (int s = 0; s < kStreamWindow; ++s) {
          Scope sp(rec, SpanName::MpiIrecv, static_cast<std::uint32_t>(win));
          reqs.push_back(mp.irecv(bufs.data() + s * kRdzvMax, size_of(win, s), 0, s, w));
        }
      };

      auto phase = [&](Phase& ph, const Deadline& dl, SpanRecorder* rec) {
        log.clear();
        clock.begin(task, &mp);
        std::uint64_t msgs = 0, bytes = 0, bad = 0;
        if (task == 0) {
          for (;; ++window) {
            Scope op(rec, SpanName::Op, static_cast<std::uint32_t>(window));
            reqs.clear();  // waitall empties it; rebuilt every window
            for (int s = 0; s < kStreamWindow; ++s) {
              const std::size_t n = size_of(window, s);
              std::byte* p = bufs.data() + s * kRdzvMax;
              stamp_message(p, n, head_stamp(window, s), tail_stamp(window, s));
              posted_at[static_cast<std::size_t>(s)].store(now_ns(), std::memory_order_release);
              Scope sp(rec, SpanName::MpiIsend, static_cast<std::uint32_t>(window));
              reqs.push_back(mp.isend(p, n, 1, s, w));
            }
            hb.issued.fetch_add(kStreamWindow, std::memory_order_relaxed);
            {
              Scope sp(rec, SpanName::MpiWaitall, static_cast<std::uint32_t>(window));
              mp.waitall(reqs);
            }
            for (int s = 0; s < kStreamWindow; ++s) {  // take the stamps off again
              const std::size_t n = size_of(window, s), off = s * kRdzvMax;
              std::memcpy(bufs.data() + off, expect.data() + off, std::min<std::size_t>(8, n));
              if (n >= 16) std::memcpy(bufs.data() + off + n - 8, expect.data() + off + n - 8, 8);
            }
            std::uint64_t ack = 0;
            {
              Scope sp(rec, SpanName::MpiRecv, static_cast<std::uint32_t>(window));
              mp.recv(&ack, sizeof ack, 1, kAckTag, w);
            }
            if ((ack & ~(1ull << 63)) != window) ack_bad.fetch_add(1);
            if (ack >> 63) {
              ++window;
              break;
            }
          }
        } else {
          reqs.clear();
          post_window(window, rec);
          for (;; ++window) {
            Scope op(rec, SpanName::Op, static_cast<std::uint32_t>(window));
            {
              Scope sp(rec, SpanName::MpiWaitall, static_cast<std::uint32_t>(window));
              mp.waitall(reqs);
            }
            const std::uint64_t t = now_ns();
            for (int s = 0; s < kStreamWindow; ++s) {
              const std::size_t n = size_of(window, s);
              std::byte* p = bufs.data() + s * kRdzvMax;
              if (check_message(p, expect.data() + s * kRdzvMax, n, head_stamp(window, s),
                                tail_stamp(window, s))) {
                ++msgs;
                bytes += n;
                log.add(t - posted_at[static_cast<std::size_t>(s)].load(
                                std::memory_order_acquire));
              } else {
                ++bad;
              }
              std::memset(p, static_cast<int>(kPoison), n);  // poison for the next window
            }
            hb.done.fetch_add(kStreamWindow, std::memory_order_relaxed);
            const bool stop = dl.reached();
            if (!stop) post_window(window + 1, rec);
            const std::uint64_t ack = window | (stop ? 1ull << 63 : 0);
            {
              Scope sp(rec, SpanName::MpiSend, static_cast<std::uint32_t>(window));
              mp.send(&ack, sizeof ack, 0, kAckTag, w);
            }
            if (stop) {
              ++window;
              break;
            }
          }
          recv_msgs.store(msgs);
          recv_bytes.store(bytes);
          recv_bad.store(bad);
          std::lock_guard<std::mutex> g(lat_mu);
          lat_out = log.samples();
        }
        clock.end(task, &mp, now_ns(), ph);
        if (task == 0) {
          ph.attempted = recv_msgs.load() + recv_bad.load();
          ph.failed = recv_bad.load() + ack_bad.exchange(0);
          ph.payload_bytes = recv_bytes.load();
          ph.lead_ops = ph.attempted;  // task 0 sends every message
          std::lock_guard<std::mutex> g(lat_mu);
          ph.latency = lat_out;
        }
        clock.barrier().wait();  // task 0 has read task 1's results
      };

      measure(rc, cy, task, phase);
    }
    mp.finalize();
  });
  sc.finish(cy.setup);
  if (rc.measure) {
    const auto d = total(cy.slices).delta.sw;
    cy.checks.push_back({"commthreads == 2", commthreads.load() == 2});
    cy.checks.push_back({"proto.rdzv.done > 0", d[obs::Pvar::RdzvDone] > 0});
    cy.checks.push_back({"proto.sends.eager > 0", d[obs::Pvar::SendsEager] > 0});
    cy.checks.push_back({"commthread activity > 0", commthread_activity(d) > 0});
  }
  return cy;
}

// --------------------------------------------------------------- am-rpc ---
//
// Each task's thread drives both of its contexts by calling
// Context::advance directly. Every context's engine is an echo server and a
// client keeping kAmWindow calls outstanding to the other task's contexts,
// with sizes 0 B - 16 KB from a fixed per-block mix. A reply is compared
// byte for byte with what was sent. One op is one call -> reply.

constexpr int kAmWindow = 16;
constexpr std::uint16_t kEchoHandler = 1;
constexpr std::size_t kAmMaxMsg = 16384;
constexpr std::size_t kAmPayload = 64 * 1024;
constexpr int kAmBlock = 20;
constexpr int kAmPlanLen = 4000;

struct AmPlanEntry {
  std::uint32_t bytes;
  std::uint32_t offset;  // into the shared seeded payload
  std::int16_t dest_ctx;
};

/// Per block of kAmBlock calls: 8 up to 64 B, 6 up to 512 B, 4 up to 4 KB
/// and 2 up to 16 KB, in seeded order.
std::vector<AmPlanEntry> am_plan(std::uint64_t seed) {
  Rng r(seed ^ 0x616d727063ull);
  struct Class {
    int count;
    std::size_t lo, hi;
  };
  constexpr Class kMix[] = {{8, 0, 64}, {6, 65, 512}, {4, 513, 4096}, {2, 4097, kAmMaxMsg}};
  std::vector<AmPlanEntry> plan;
  for (int b = 0; b < kAmPlanLen / kAmBlock; ++b) {
    std::vector<AmPlanEntry> block;
    for (const Class& c : kMix) {
      for (int i = 0; i < c.count; ++i) {
        const auto n = static_cast<std::uint32_t>(r.range(c.lo, c.hi));
        block.push_back({n, static_cast<std::uint32_t>(r.range(0, kAmPayload - n)),
                         static_cast<std::int16_t>(r.next() & 1)});
      }
    }
    for (int i = kAmBlock - 1; i > 0; --i) {
      std::swap(block[static_cast<std::size_t>(i)], block[r.next() % (i + 1)]);
    }
    plan.insert(plan.end(), block.begin(), block.end());
  }
  return plan;
}

std::uint64_t am_plan_hash(std::uint64_t seed) {
  PlanHash h;
  for (const AmPlanEntry& e : am_plan(seed)) {
    h.add(e.bytes);
    h.add(e.offset);
    h.add(static_cast<std::uint64_t>(e.dest_ctx));
  }
  return h.value();
}

/// One client engine's loop state. Reply callbacks capture a pointer to
/// it plus the issue time and plan index.
struct AmClient {
  const AmPlanEntry* plan = nullptr;
  const std::byte* payload = nullptr;
  LatencyLog* log = nullptr;
  Beat* hb = nullptr;
  std::uint64_t next = 0;  // plan cursor
  std::uint64_t attempted = 0, completed = 0, failed = 0, bytes = 0;
  std::uint32_t outstanding = 0;
};

Cycle run_am(const RunConfig& rc) {
  Cycle cy;
  if (rc.measure) cy.slices.resize(kSlices);
  const std::vector<AmPlanEntry> plan = am_plan(rc.seed);
  std::vector<std::byte> payload(kAmPayload);
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    const std::uint64_t v = mix(rc.seed ^ 0x7061796cull, i);
    std::memcpy(payload.data() + i, &v, 8);
  }
  SetupClock sc;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  const std::uint64_t t1 = now_ns();
  pami::ClientConfig cfg;
  cfg.contexts_per_task = 2;
  pami::ClientWorld world(machine, cfg);
  cy.setup.machine_ns = t1 - sc.t0;
  cy.setup.world_ns = now_ns() - t1;

  PhaseClock clock(2);
  std::mutex merge_mu;
  AmClient totals;
  std::vector<std::uint32_t> lat_all;

  machine.run_spmd([&](int task) {
    pami::Context& c0 = world.client(task).context(0);
    pami::Context& c1 = world.client(task).context(1);
    const std::uint64_t ib = now_ns();
    am::Engine e0(c0);
    am::Engine e1(c1);
    am::Engine* engines[2] = {&e0, &e1};
    for (am::Engine* e : engines) {
      e->register_handler(kEchoHandler, [](am::Engine& eng, const am::AmMsg& m) {
        eng.reply(m, m.data, m.bytes);
      });
    }
    sc.task_ready(ib, now_ns());
    auto serve = [&] {
      c0.advance();
      c1.advance();
    };
    clock.barrier().wait(serve);
    if (rc.measure) {
      LatencyLog log;
      AmClient cl[2];
      for (int c = 0; c < 2; ++c) {
        cl[c].plan = plan.data();
        cl[c].payload = payload.data();
        cl[c].log = &log;
        cl[c].hb = &beat(task);
        cl[c].next = static_cast<std::uint64_t>(task * 2 + c) * (kAmPlanLen / 4);
      }
      std::uint32_t iter = 0;

      auto issue = [&](int c, SpanRecorder* rec) {
        AmClient* s = &cl[c];
        const std::uint32_t idx = static_cast<std::uint32_t>(s->next++ % plan.size());
        const AmPlanEntry& e = plan[idx];
        const std::uint64_t t0 = now_ns();
        Scope sp(rec, SpanName::AmCall, iter);
        const pami::Result r = engines[c]->call(
            pami::Endpoint{1 - task, e.dest_ctx}, kEchoHandler, payload.data() + e.offset,
            e.bytes,
            am::ReplyFn([s, t0, idx](pami::Result st, const void* data, std::size_t n) {
              const AmPlanEntry& pe = s->plan[idx];
              --s->outstanding;
              if (st == pami::Result::Success && n == pe.bytes &&
                  (n == 0 || std::memcmp(data, s->payload + pe.offset, n) == 0)) {
                ++s->completed;
                s->bytes += n;
                s->log->add(now_ns() - t0);
              } else {
                ++s->failed;
              }
              s->hb->done.fetch_add(1, std::memory_order_relaxed);
            }));
        ++s->attempted;
        s->hb->issued.fetch_add(1, std::memory_order_relaxed);
        if (r == pami::Result::Success) {
          ++s->outstanding;
        } else {
          ++s->failed;
          s->hb->done.fetch_add(1, std::memory_order_relaxed);
        }
      };

      auto phase = [&](Phase& ph, const Deadline& dl, SpanRecorder* rec) {
        log.clear();
        for (AmClient& s : cl) s.attempted = s.completed = s.failed = s.bytes = 0;
        clock.begin(task, nullptr, serve);
        for (;; ++iter) {
          Scope op(rec, SpanName::Op, iter);
          const bool stop = dl.reached();
          for (int c = 0; c < 2 && !stop; ++c) {
            while (cl[c].outstanding < kAmWindow) issue(c, rec);
          }
          {
            Scope sp(rec, SpanName::CoreAdvance, iter);
            c0.advance();
          }
          {
            Scope sp(rec, SpanName::CoreAdvance, iter);
            c1.advance();
          }
          if (stop && cl[0].outstanding == 0 && cl[1].outstanding == 0) break;
        }
        const std::uint64_t done = now_ns();
        {
          std::lock_guard<std::mutex> g(merge_mu);
          if (task == 0) {
            totals = AmClient{};
            lat_all.clear();
          }
        }
        clock.barrier().wait(serve);
        {
          std::lock_guard<std::mutex> g(merge_mu);
          for (const AmClient& s : cl) {
            totals.attempted += s.attempted;
            totals.completed += s.completed;
            totals.failed += s.failed;
            totals.bytes += s.bytes;
          }
          lat_all.insert(lat_all.end(), log.samples().begin(), log.samples().end());
        }
        clock.end(task, nullptr, done, ph, serve);
        if (task == 0) {
          ph.attempted = totals.attempted;
          ph.failed = totals.failed;
          ph.payload_bytes = totals.bytes;
          ph.latency = lat_all;
          ph.lead_ops = cl[0].attempted + cl[1].attempted;
        }
      };

      measure(rc, cy, task, phase);
    }
    // Quiesce (credit returns, aggregated replies) before the engines go.
    while (!e0.quiescent() || !e1.quiescent()) serve();
    clock.barrier().wait(serve);
  });
  sc.finish(cy.setup);
  if (rc.measure) {
    const auto d = total(cy.slices).delta.sw;
    cy.checks.push_back({"mpi.isends == 0", d[obs::Pvar::MpiIsends] == 0});
    cy.checks.push_back({"am.agg_packets > 0", d[obs::Pvar::AmAggPackets] > 0});
    cy.checks.push_back({"am.calls > 0", d[obs::Pvar::AmCalls] > 0});
  }
  return cy;
}

// ------------------------------------------------------- coll-allreduce ---
//
// Four tasks (2 nodes x 2 ppn) run one seeded sequence of MPI_DOUBLE sum
// allreduces in batches of kCollBatch: each batch has kLargePerBatch 1 MB
// world allreduces (the slice pipeline), kSplitPerBatch 8-byte allreduces
// on a 3-rank split communicator that is not a rectangle (the software
// path; task 3 sits them out), and 8-byte world allreduces (the
// classroute) for the rest, always including the batch's last op. Each
// result is checked against its closed-form sum. One op is one allreduce.
// The latency percentiles cover the 8-byte world ops only; an op's latency
// runs from the last rank's entry to the last rank's exit, so the skew the
// previous op left between ranks (a 1 MB op, or a split op task 3 skipped)
// is not counted as this op's time.

constexpr int kCollTasks = 4;
constexpr int kCollBatch = 64;
constexpr int kLargePerBatch = 1;
constexpr int kSplitPerBatch = 9;
constexpr int kCollPlanBatches = 64;
constexpr std::size_t kLargeCount = (1u << 20) / sizeof(double);
enum class CollOp : std::uint8_t { World8, Split8, World1M };

std::vector<CollOp> coll_plan(std::uint64_t seed) {
  Rng r(seed ^ 0x636f6c6cull);
  std::vector<CollOp> plan;
  for (int b = 0; b < kCollPlanBatches; ++b) {
    std::vector<CollOp> batch(kCollBatch, CollOp::World8);
    for (int i = 0; i < kLargePerBatch; ++i) batch[static_cast<std::size_t>(i)] = CollOp::World1M;
    for (int i = 0; i < kSplitPerBatch; ++i) {
      batch[static_cast<std::size_t>(kLargePerBatch + i)] = CollOp::Split8;
    }
    for (int i = kCollBatch - 2; i > 0; --i) {  // the last op stays World8
      std::swap(batch[static_cast<std::size_t>(i)], batch[r.next() % (i + 1)]);
    }
    plan.insert(plan.end(), batch.begin(), batch.end());
  }
  return plan;
}

std::uint64_t coll_plan_hash(std::uint64_t seed) {
  PlanHash h;
  const std::vector<CollOp> plan = coll_plan(seed);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    h.add(static_cast<std::uint64_t>(plan[i]));
    h.add(mix(seed, i) & 0xffffffffffull);
  }
  return h.value();
}

Cycle run_coll(const RunConfig& rc) {
  Cycle cy;
  if (rc.measure) cy.slices.resize(kSlices);
  const std::vector<CollOp> plan = coll_plan(rc.seed);
  SetupClock sc;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 2);
  const std::uint64_t t1 = now_ns();
  mpi::MpiWorld world(machine);
  cy.setup.machine_ns = t1 - sc.t0;
  cy.setup.world_ns = now_ns() - t1;

  PhaseClock clock(kCollTasks);
  std::atomic<std::uint64_t> stop_batch{~0ull};
  std::atomic<bool> world_opt{true}, split_opt{false};
  std::mutex merge_mu;
  std::set<std::uint64_t> failed_ops;
  // Entry and exit times of each rank's 8-byte world ops, aligned op for op.
  std::vector<SampleLog<std::uint64_t>> entries(kCollTasks, SampleLog<std::uint64_t>(1u << 18));
  std::vector<SampleLog<std::uint64_t>> exits(kCollTasks, SampleLog<std::uint64_t>(1u << 18));
  std::uint64_t ops_done = 0, bytes_done = 0;

  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    const std::uint64_t ib = now_ns();
    mp.init(mpi::ThreadLevel::Single);
    const std::uint64_t ie = now_ns();
    const mpi::Comm w = mp.world();
    if (!mp.comm_is_optimized(w)) mp.mpix_optimize(w);
    if (!mp.comm_is_optimized(w)) world_opt.store(false);
    const int me = mp.rank(w);
    const mpi::Comm split = mp.split(w, me < 3 ? 0 : 1, me);
    if (me < 3 && mp.comm_is_optimized(split)) split_opt.store(true);
    sc.task_ready(ib, ie);
    clock.barrier().wait();
    if (rc.measure) {
      // Two 1 MB inputs used alternately, so a stale result never matches.
      std::vector<double> large_in[2], large_out(kLargeCount);
      for (int p = 0; p < 2; ++p) {
        large_in[p].resize(kLargeCount);
        for (std::size_t j = 0; j < kLargeCount; ++j) large_in[p][j] = me + double(j) * (p + 1);
      }
      SampleLog<std::uint64_t>& entry_log = entries[static_cast<std::size_t>(me)];
      SampleLog<std::uint64_t>& exit_log = exits[static_cast<std::size_t>(me)];
      Beat& hb = beat(task);
      std::uint64_t op = 0, batch = 0, large_seq = 0;
      std::vector<std::uint64_t> my_failed;

      auto run_op = [&](CollOp kind, SpanRecorder* rec) -> std::uint64_t {
        const double k = static_cast<double>(mix(rc.seed, op % plan.size()) & 0xffffffffffull);
        const std::uint32_t oid = static_cast<std::uint32_t>(op);
        bool ok = true;
        std::uint64_t bytes = sizeof(double);
        Scope sp(rec, SpanName::Op, oid);
        if (kind == CollOp::World8) {
          const double in = k + me;
          double out = -1;
          entry_log.add(now_ns());
          {
            Scope s(rec, SpanName::MpiAllreduceSmall, oid);
            mp.allreduce(&in, &out, 1, mpi::Type::Double, mpi::Op::Add, w);
          }
          exit_log.add(now_ns());
          ok = out == 4 * k + 6;
        } else if (kind == CollOp::Split8) {
          if (me < 3) {
            const double in = k + me;
            double out = -1;
            Scope s(rec, SpanName::MpiAllreduceSw, oid);
            mp.allreduce(&in, &out, 1, mpi::Type::Double, mpi::Op::Add, split);
            ok = out == 3 * k + 3;
          }
        } else {
          const int p = static_cast<int>(large_seq++ & 1);
          std::vector<double>& in = large_in[p];
          in[0] = k + me;
          large_out[0] = -1;
          {
            Scope s(rec, SpanName::MpiAllreduceLarge, oid);
            mp.allreduce(in.data(), large_out.data(), kLargeCount, mpi::Type::Double,
                         mpi::Op::Add, w);
          }
          ok = large_out[0] == 4 * k + 6;
          for (std::size_t j = 1; j < kLargeCount && ok; ++j) {
            ok = large_out[j] == 6 + 4.0 * double(j) * (p + 1);
          }
          bytes = kLargeCount * sizeof(double);
        }
        if (!ok) my_failed.push_back(op);
        ++op;
        return ok ? bytes : 0;  // verified bytes only
      };

      auto phase = [&](Phase& ph, const Deadline& dl, SpanRecorder* rec) {
        entry_log.clear();
        exit_log.clear();
        my_failed.clear();
        if (task == 0) stop_batch.store(~0ull);
        clock.begin(task, &mp);
        std::uint64_t n = 0, bytes = 0;
        for (;; ++batch) {
          // Task 0 decides before entering the batch; every other task can
          // be at most at this batch's start (its last op is a world op),
          // so all of them see the decision at the next batch boundary.
          if (task == 0 && stop_batch.load() == ~0ull && dl.reached()) {
            stop_batch.store(batch + 1);
          }
          if (batch >= stop_batch.load()) break;
          for (int j = 0; j < kCollBatch; ++j) {
            hb.issued.fetch_add(1, std::memory_order_relaxed);
            bytes += run_op(plan[op % plan.size()], rec);
            ++n;
            hb.done.fetch_add(1, std::memory_order_relaxed);
          }
        }
        {
          std::lock_guard<std::mutex> g(merge_mu);
          failed_ops.insert(my_failed.begin(), my_failed.end());
          if (task == 0) {
            ops_done = n;
            bytes_done = bytes;
          }
        }
        clock.end(task, &mp, now_ns(), ph);
        if (task == 0) {
          // Latency of an op: last exit minus last entry over the ranks.
          const std::size_t n = entries[0].samples().size();
          ph.latency.clear();
          for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t in = 0, out = 0;
            for (int r = 0; r < kCollTasks; ++r) {
              in = std::max(in, entries[static_cast<std::size_t>(r)].samples()[i]);
              out = std::max(out, exits[static_cast<std::size_t>(r)].samples()[i]);
            }
            ph.latency.push_back(static_cast<std::uint32_t>(out - in));
          }
          ph.attempted = ops_done;
          ph.lead_ops = ops_done;
          ph.failed = failed_ops.size();
          ph.payload_bytes = bytes_done;
          failed_ops.clear();
        }
        clock.barrier().wait();
      };

      measure(rc, cy, task, phase);
    }
    mp.finalize();
  });
  sc.finish(cy.setup);
  if (rc.measure) {
    const auto d = total(cy.slices).delta.sw;
    cy.checks.push_back({"world communicator optimized", world_opt.load()});
    cy.checks.push_back({"split communicator not optimized", !split_opt.load()});
    cy.checks.push_back({"runtime.collnet.rounds_completed > 0",
                         d[obs::Pvar::CollRoundsCompleted] > 0});
    cy.checks.push_back({"core.coll.sw_deposits > 0", d[obs::Pvar::CollSwDeposits] > 0});
  }
  return cy;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"mpi-pingpong", 2, true, run_pingpong, pingpong_plan_hash},
      {"mpi-stream", 4, true, run_stream, stream_plan_hash},
      {"am-rpc", 2, false, run_am, am_plan_hash},
      {"coll-allreduce", kCollTasks, true, run_coll, coll_plan_hash},
  };
  return w;
}

}  // namespace pamibench

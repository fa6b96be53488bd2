#include "mpi/mpi.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "core/endpoint.h"
#include "core/env.h"
#include "hw/cnk.h"
#include "mpi/matching.h"
#include "obs/pvar.h"

namespace pamix::mpi {

namespace {
/// Dispatch id reserved for MPI point-to-point traffic.
constexpr pami::DispatchId kMpiDispatchId = 1;

/// Handoff injection with a queue-mediated retry. On Eagain the item
/// re-posts itself instead of advancing the context re-entrantly: a nested
/// advance() runs the next handoff item inside this one's stack frame, and
/// with tens of thousands of queued sends that recursion overflows the
/// commthread stack. Re-posting returns control to the engine's device
/// loop, so injection and reception drain between attempts; the receive
/// side's per-peer sequence parking absorbs any arrival reordering the
/// round trip through the queue introduces.
void post_handoff_send(pami::Context& ctx, const Envelope& env, pami::Endpoint dest,
                       const void* buf, std::size_t bytes, const Request& req) {
  ctx.post([&ctx, env, dest, buf, bytes, req] {
    pami::SendParams p;
    p.dispatch = kMpiDispatchId;
    p.dest = dest;
    p.header = &env;
    p.header_bytes = sizeof(env);
    p.data = buf;
    p.data_bytes = bytes;
    p.on_local_done = [req] { req->finish(); };
    if (ctx.send(p) == pami::Result::Eagain) {
      post_handoff_send(ctx, env, dest, buf, bytes, req);
    }
  });
}
/// Streak length (isends since the last blocking call) past which the
/// adaptive handoff policy stops injecting inline and starts posting to
/// the commthread: a short streak is latency-shaped traffic (isend, then
/// immediately block) where the caller wants the descriptor built NOW on
/// its own cycles; a long streak is rate-shaped traffic (paper §IV-A)
/// where pipelining construction to the commthread wins.
constexpr int kInlineSendStreak = 8;
}  // namespace

struct Mpi::Impl {
  Impl(Library lib, int task, int nctx)
      // Counters only: MPI entry points may run on any application
      // thread, and trace rings are single-writer.
      : obs(obs::Registry::instance().create("task" + std::to_string(task) + ".mpi", task,
                                             /*tid=*/128, /*want_ring=*/false)),
        matcher(lib, nctx, &obs.pvars),
        library(lib) {
    obs.pvars.add(obs::Pvar::ConfigMpiMatch,
                  matcher.mode() == Matcher::Mode::Bins ? 1 : 0);
  }

  obs::Domain& obs;
  Matcher matcher;
  RequestPool requests;
  Library library;
  hw::L2AtomicMutex global_lock;  // the "classic" library's global lock
  // isends since this task's last blocking call — the adaptive handoff
  // discriminator. Shared across app threads on purpose: it is a traffic-
  // shape heuristic, not a correctness input, so relaxed races are fine.
  std::atomic<int> isend_streak{0};
};

/// RAII over a blocking call's progress-steal window (paper §V): while
/// this thread polls progress itself, commthread wakeups for the hashed
/// contexts are muted — every store the stealer is about to consume would
/// otherwise also buy a futex wake into a guaranteed trylock loss.
/// Destruction unmutes and re-rings anything left pollable.
class Mpi::StealWindow {
 public:
  static constexpr int kMaxContexts = 64;

  StealWindow(pami::Client& client, int nctx, bool active)
      : client_(client), nctx_(active ? std::min(nctx, kMaxContexts) : 0) {
    for (int i = 0; i < nctx_; ++i) epochs_[i] = client_.context(i).begin_steal();
  }
  ~StealWindow() {
    for (int i = 0; i < nctx_; ++i) client_.context(i).end_steal(epochs_[i]);
  }
  StealWindow(const StealWindow&) = delete;
  StealWindow& operator=(const StealWindow&) = delete;

 private:
  pami::Client& client_;
  int nctx_;
  std::array<std::uint64_t, kMaxContexts> epochs_;  // per-window, heap-free
};

// ------------------------------------------------------------------ world --

MpiWorld::MpiWorld(runtime::Machine& machine, MpiConfig config)
    : machine_(machine), config_(config) {
  config_.endpoints = core::env_int_or("PAMIX_ENDPOINTS", config_.endpoints, 0, 64);
  config_.ep_fallback = core::env_flag_or("PAMIX_EP_FALLBACK", config_.ep_fallback);
  pami::ClientConfig cc;
  cc.name = "mpi";
  // Endpoint contexts sit after the hashed ones: [0, contexts_per_task)
  // is the hashed partition, [contexts_per_task, +endpoints) is one
  // context per bindable endpoint.
  const int total_ctx = config_.contexts_per_task + config_.endpoints;
  cc.contexts_per_task = total_ctx;
  cc.eager_limit = config_.rendezvous_threshold;
  cc.shm_eager_limit = config_.rendezvous_threshold;
  // Keep the FIFO demand within the MU partition at high ppn.
  const int budget = hw::kInjFifoCount / std::max(1, machine.ppn() * total_ctx);
  cc.send_fifos_per_context = std::clamp(budget, 1, 8);
  clients_ = std::make_unique<pami::ClientWorld>(machine, cc);
  ranks_.reserve(static_cast<std::size_t>(machine.task_count()));
  for (int t = 0; t < machine.task_count(); ++t) {
    ranks_.push_back(std::make_unique<Mpi>(*this, t));
  }
}

MpiWorld::~MpiWorld() = default;

// -------------------------------------------------------------------- Mpi --

Mpi::Mpi(MpiWorld& world, int task)
    : world_(world),
      client_(world.client_world().client(task)),
      task_(task),
      base_contexts_(client_.context_count() - world.config().endpoints),
      // The matcher's shard hash refines the *hashed* context hash, so its
      // hint is the base-context count, not the total.
      impl_(std::make_unique<Impl>(world.config().library, task, base_contexts_)) {
  // COMM_WORLD handle for this task.
  auto comm = std::make_shared<CommImpl>();
  comm->geometry = world.client_world().geometries().world_geometry();
  comm->my_rank = static_cast<int>(*comm->geometry->rank_of(task));
  world_comm_ = std::move(comm);

  // Register the pamid dispatch on every context: the handler classifies
  // the arrival and feeds the matcher.
  for (int c = 0; c < client_.context_count(); ++c) {
    client_.context(c).set_dispatch(
        kMpiDispatchId,
        [this](pami::Context& ctx, const void* header, std::size_t header_bytes,
               const void* pipe, std::size_t pipe_bytes, std::size_t total,
               pami::Endpoint origin, pami::RecvDescriptor* recv) {
          Envelope env;
          assert(header_bytes == sizeof(env));
          (void)header_bytes;
          std::memcpy(&env, header, sizeof(env));
          Matcher::Arrival a;
          a.env = env;
          a.origin = origin;
          a.total = total;
          if (recv == nullptr) {
            a.kind = Matcher::Arrival::Kind::Inline;
            a.pipe = static_cast<const std::byte*>(pipe);
            a.pipe_bytes = pipe_bytes;
          } else if (recv->defer_handle != 0) {
            // Only rendezvous-style arrivals (MU RTS, shm zero-copy) carry
            // a defer handle.
            a.kind = Matcher::Arrival::Kind::Rdzv;
            a.live_recv = recv;
            a.ctx = &ctx;
          } else {
            a.kind = Matcher::Arrival::Kind::Streaming;
            a.live_recv = recv;
          }
          // Dispatch runs under the context lock, so the context's
          // single-writer ring can take the match span.
          obs::TraceRing& ring = ctx.obs().trace;
          if (ring.enabled()) {
            const std::uint64_t t0 = obs::now_ns();
            const std::uint32_t seq = env.seq;
            impl_->matcher.on_arrival(std::move(a));
            ring.record_span(obs::TraceEv::MpiMatch, t0, seq);
          } else {
            impl_->matcher.on_arrival(std::move(a));
          }
        });
  }

  // Scalable endpoints: one owner-private matching shard + endpoint object
  // per extra context. enable_endpoints no-ops in list mode, so
  // endpoint_count() stays 0 there even if contexts were allocated.
  const int eps = world.config().endpoints;
  if (eps > 0) {
    impl_->matcher.enable_endpoints(eps, world.config().ep_fallback);
    impl_->obs.pvars.add(obs::Pvar::ConfigEndpoints,
                         static_cast<std::uint64_t>(impl_->matcher.endpoint_count()));
    impl_->obs.pvars.add(obs::Pvar::ConfigEpFallback,
                         world.config().ep_fallback ? 1 : 0);
    endpoints_.reserve(static_cast<std::size_t>(impl_->matcher.endpoint_count()));
    for (int i = 0; i < impl_->matcher.endpoint_count(); ++i) {
      endpoints_.push_back(std::unique_ptr<MpiEndpoint>(new MpiEndpoint(*this, i)));
    }
  }
}

Mpi::~Mpi() = default;

ThreadLevel Mpi::init(ThreadLevel requested) {
  assert(!initialized_);
  initialized_ = true;
  level_ = requested;
  const MpiConfig& cfg = world_.config();
  const bool want_comm =
      cfg.commthreads == MpiConfig::Commthreads::ForceOn ||
      (cfg.commthreads == MpiConfig::Commthreads::Auto && level_ == ThreadLevel::Multiple);
  if (want_comm) {
    int count = cfg.commthread_count;
    if (count < 0) {
      const int ppn = world_.machine().ppn();
      count = std::max(1, (hw::kHwThreadsPerNode - ppn) / std::max(1, ppn));
      count = std::min(count, base_contexts_);
    }
    // Commthreads cover only the hashed partition: endpoint contexts are
    // advanced exclusively by their bound thread.
    if (count > 0) {
      commthreads_ = std::make_unique<pami::CommThreadPool>(client_, count, base_contexts_);
    }
  }
  return level_;
}

void Mpi::finalize() {
  if (!initialized_) return;
  barrier(world_comm_);
  if (commthreads_) {
    commthreads_->stop();
    commthreads_.reset();
  }
  initialized_ = false;
}

int Mpi::commthread_count() const {
  return commthreads_ ? commthreads_->thread_count() : 0;
}

int Mpi::rank(const Comm& c) const { return c->my_rank; }
int Mpi::size(const Comm& c) const { return c->size(); }

// --------------------------------------------------------------- progress --

std::size_t Mpi::progress(bool* steal_recorded) {
  // Hashed contexts only: endpoint contexts belong to their bound thread
  // (single-advancer), so the shared progress loop must not touch them.
  const bool need_ctx_lock = commthreads_ != nullptr || level_ == ThreadLevel::Multiple;
  std::size_t events = 0;
  for (int i = 0; i < base_contexts_; ++i) {
    pami::Context& ctx = client_.context(i);
    if (need_ctx_lock) {
      if (!ctx.trylock()) continue;  // a commthread is already on it
      const std::size_t ev = ctx.advance();
      if (ev > 0 && commthreads_ != nullptr && steal_recorded != nullptr &&
          !*steal_recorded) {
        // Blocking-call progress stealing (paper §V): the caller advanced
        // a commthread-covered context itself instead of parking on the
        // handoff. Counted once per blocking call; the trace record lands
        // under the lock — the ring's single writer is whoever advances.
        *steal_recorded = true;
        impl_->obs.pvars.add(obs::Pvar::CommSteals);
        ctx.obs().trace.record(obs::TraceEv::CommSteal, static_cast<std::uint32_t>(ev));
      }
      ctx.unlock();
      events += ev;
    } else {
      events += ctx.advance();
    }
  }
  return events;
}

void Mpi::progress_until(const std::function<bool()>& pred) {
  impl_->isend_streak.store(0, std::memory_order_relaxed);
  // Already satisfied (an eager send that completed locally at injection,
  // a message already matched): skip the steal-window setup entirely.
  if (pred()) return;
  StealWindow steal(client_, base_contexts_, commthreads_ != nullptr);
  bool steal_recorded = false;
  hw::Waiter waiter;
  while (!pred()) waiter.step(progress(&steal_recorded));
}

// ------------------------------------------------------------ point2point --

pami::Context& Mpi::context_for_send(const CommImpl& c, int dest_rank) {
  // Source context hashed from (destination, communicator); the peer
  // context is hashed symmetrically from (source, communicator), so one
  // (comm, src, dst) triple always rides one ordered channel. The hash
  // spans only the base partition — endpoint contexts are reached by
  // explicit addressing, never by hashing.
  const int n = base_contexts_;
  return client_.context((dest_rank + c.id()) % n);
}

void Mpi::complete_isend(const CommImpl& c, int dest_rank, Request req, const void* buf,
                         std::size_t bytes, int tag) {
  pami::Context& ctx = context_for_send(c, dest_rank);
  const int n = base_contexts_;
  Envelope env;
  env.comm = c.id();
  env.src_rank = c.my_rank;
  env.tag = tag;
  env.seq = impl_->matcher.next_send_seq(c.id(), dest_rank);

  const pami::Endpoint dest{c.geometry->task_of(static_cast<std::size_t>(dest_rank)),
                            static_cast<std::int16_t>((c.my_rank + c.id()) % n)};

  const bool handoff = commthreads_ != nullptr && impl_->library == Library::ThreadOptimized;
  if (handoff) {
    // Adaptive handoff: the isend streak since the last blocking call
    // discriminates latency-shaped traffic (short streak — the caller is
    // about to block, so inject on its own cycles under a trylock) from
    // rate-shaped bursts (long streak — pipeline descriptor construction
    // to the commthread, paper §IV-A). The inline arm engages only when
    // the lock is free: it never preempts an active advancer, and the
    // receive side's per-peer sequence parking absorbs any interleave
    // with previously queued handoffs.
    const int streak = impl_->isend_streak.fetch_add(1, std::memory_order_relaxed);
    if (streak < kInlineSendStreak && ctx.trylock()) {
      pami::SendParams p;
      p.dispatch = kMpiDispatchId;
      p.dest = dest;
      p.header = &env;
      p.header_bytes = sizeof(env);
      p.data = buf;
      p.data_bytes = bytes;
      p.on_local_done = [req] { req->finish(); };
      // Eagain drains under the held lock: progress() would skip this
      // context (its own trylock loses to us).
      hw::Waiter waiter;
      while (ctx.send(p) == pami::Result::Eagain) waiter.step(ctx.advance());
      ctx.unlock();
      impl_->obs.pvars.add(obs::Pvar::CommInlineSends);
      return;
    }
    // Message-rate path (paper §IV-A): hand descriptor construction and
    // injection to the commthread owning the hashed context. The envelope
    // lives in the closure's inline storage; SendParams are rebuilt on the
    // advancing thread so nothing move-only crosses the queue.
    post_handoff_send(ctx, env, dest, buf, bytes, req);
    // Latency-sensitive fast wake: the queue-tail snoop above wakes the
    // worker eventually; the doorbell store names the handoff as urgent
    // and is what a sleeping commthread's fast-wake accounting sees.
    commthreads_->ring_doorbell(&ctx);
    return;
  }
  pami::SendParams p;
  p.dispatch = kMpiDispatchId;
  p.dest = dest;
  p.header = &env;
  p.header_bytes = sizeof(env);
  p.data = buf;
  p.data_bytes = bytes;
  p.on_local_done = [req] { req->finish(); };
  const bool need_ctx_lock = commthreads_ != nullptr || level_ == ThreadLevel::Multiple;
  for (;;) {
    pami::Result r;
    if (need_ctx_lock) {
      ctx.lock();
      r = ctx.send(p);
      ctx.unlock();
    } else {
      r = ctx.send(p);
    }
    if (r != pami::Result::Eagain) break;
    progress();
  }
}

Request Mpi::isend(const void* buf, std::size_t bytes, int dest, int tag, const Comm& c) {
  assert(initialized_);
  impl_->obs.pvars.add(obs::Pvar::MpiIsends);
  Request req = impl_->requests.acquire(RequestImpl::Kind::Send);
  req->steal_ctx = (dest + c->id()) % base_contexts_;
  const bool classic_locked =
      impl_->library == Library::Classic && level_ == ThreadLevel::Multiple;
  if (classic_locked) impl_->global_lock.lock();
  complete_isend(*c, dest, req, buf, bytes, tag);
  if (classic_locked) impl_->global_lock.unlock();
  return req;
}

Request Mpi::irecv(void* buf, std::size_t bytes, int source, int tag, const Comm& c) {
  assert(initialized_);
  impl_->obs.pvars.add(obs::Pvar::MpiIrecvs);
  Request req = impl_->requests.acquire(RequestImpl::Kind::Recv);
  req->buffer = buf;
  req->capacity = bytes;
  // The sender hashes its context from (dest, comm) and targets ours
  // symmetrically from (src, comm), so a known source pins the arrival
  // channel; ANY_SOURCE leaves it unknown (-1 → full-sweep wait).
  if (source != kAnySource) req->steal_ctx = (source + c->id()) % base_contexts_;
  const bool classic_locked =
      impl_->library == Library::Classic && level_ == ThreadLevel::Multiple;
  if (classic_locked) impl_->global_lock.lock();
  impl_->matcher.post_recv(req, c->id(), source, tag);
  if (classic_locked) impl_->global_lock.unlock();
  // A global ANY_SOURCE must also see messages sitting unexpected in
  // endpoint shards; those are owner-private, so the sweep is posted to
  // each bound context's work queue rather than run here.
  if (source == kAnySource && impl_->matcher.endpoint_count() > 0 &&
      impl_->matcher.endpoint_fallback()) {
    kick_endpoint_scans(-1);
  }
  return req;
}

void Mpi::kick_endpoint_scans(int except) {
  Matcher* m = &impl_->matcher;
  for (int i = 0; i < m->endpoint_count(); ++i) {
    if (i == except) continue;
    pami::Context& ctx = client_.context(base_contexts_ + i);
    ctx.post([m, i] { m->scan_endpoint_for_global(i); });
  }
}

void Mpi::send(const void* buf, std::size_t bytes, int dest, int tag, const Comm& c) {
  Request r = isend(buf, bytes, dest, tag, c);
  wait(r);
}

void Mpi::recv(void* buf, std::size_t bytes, int source, int tag, const Comm& c,
               Status* status) {
  Request r = irecv(buf, bytes, source, tag, c);
  wait(r, status);
}

void Mpi::wait_on_context(Request& r, int ctx_index) {
  impl_->isend_streak.store(0, std::memory_order_relaxed);
  if (r->done()) return;
  pami::Context& ctx = client_.context(ctx_index);
  const std::uint64_t epoch = ctx.begin_steal();
  bool recorded = false;
  // Bound: after this many consecutive empty passes, assume the
  // completing event is not landing on this channel after all and fall
  // back to the full sweep (which can never miss it).
  constexpr int kMaxEmptyPasses = 4096;
  int empty = 0;
  hw::Waiter waiter;
  while (!r->done() && empty < kMaxEmptyPasses) {
    std::size_t ev = 0;
    if (ctx.trylock()) {
      ev = ctx.advance();
      if (ev > 0 && !recorded) {
        recorded = true;
        impl_->obs.pvars.add(obs::Pvar::CommSteals);
        ctx.obs().trace.record(obs::TraceEv::CommSteal, static_cast<std::uint32_t>(ev));
      }
      ctx.unlock();
    }
    empty = ev == 0 ? empty + 1 : 0;
    waiter.step(ev);
  }
  ctx.end_steal(epoch);
  if (!r->done()) progress_until([&] { return r->done(); });
}

void Mpi::wait(Request& r, Status* status) {
  // Targeted steal (paper §V): a request whose completing event is bound
  // to one hashed context polls exactly that context, leaving the rest of
  // the partition to the commthread pool. Everything else (ANY_SOURCE, no
  // commthreads) takes the full-sweep path.
  const int sctx = r->steal_ctx;
  if (commthreads_ != nullptr && commthreads_->thread_count() > 0 && sctx >= 0 &&
      sctx < base_contexts_) {
    wait_on_context(r, sctx);
  } else {
    progress_until([&] { return r->done(); });
  }
  if (status != nullptr) *status = r->status;
  r.reset();
}

bool Mpi::test(Request& r, Status* status) {
  progress();
  if (!r->done()) return false;
  if (status != nullptr) *status = r->status;
  r.reset();
  return true;
}

bool Mpi::iprobe(int source, int tag, const Comm& c, Status* status) {
  progress();
  return impl_->matcher.probe(c->id(), source, tag, status);
}

void Mpi::probe(int source, int tag, const Comm& c, Status* status) {
  progress_until([&] { return impl_->matcher.probe(c->id(), source, tag, status); });
}

void Mpi::waitall(std::vector<Request>& rs) {
  // Two-phase waitall (paper §IV-A): phase one walks the requests once,
  // overlapping the (modelled) id-to-object conversion with the completion
  // -counter loads, and queues the incomplete ones; phase two polls only
  // the queued residue while driving progress.
  impl_->isend_streak.store(0, std::memory_order_relaxed);
  StealWindow steal(client_, base_contexts_, commthreads_ != nullptr);
  std::vector<RequestImpl*> incomplete;
  incomplete.reserve(rs.size());
  for (Request& r : rs) {
    if (!r->done()) incomplete.push_back(r.get());
  }
  // Phase two polls only the residue, dropping requests as they complete
  // (swap-erase keeps each sweep proportional to what is actually left).
  bool steal_recorded = false;
  hw::Waiter waiter;
  while (!incomplete.empty()) {
    const std::size_t events = progress(&steal_recorded);
    for (std::size_t i = 0; i < incomplete.size();) {
      if (incomplete[i]->done()) {
        incomplete[i] = incomplete.back();
        incomplete.pop_back();
      } else {
        ++i;
      }
    }
    if (!incomplete.empty()) waiter.step(events);
  }
  for (Request& r : rs) r.reset();
  rs.clear();
}

void Mpi::waitall_naive(std::vector<Request>& rs) {
  for (Request& r : rs) wait(r);
  rs.clear();
}

// -------------------------------------------------------------- accessors --

std::uint64_t Mpi::unexpected_messages() const { return impl_->matcher.unexpected_count(); }
std::uint64_t Mpi::posted_receives_matched() const {
  return impl_->matcher.posted_matched_count();
}

// ------------------------------------------------------------ MpiEndpoint --

struct MpiEndpoint::Impl {
  Impl(Mpi& mpi, int index)
      : obs(obs::Registry::instance().create(
            "task" + std::to_string(mpi.task_) + ".ep" + std::to_string(index), mpi.task_,
            /*tid=*/128, /*want_ring=*/false)),
        core(mpi.client_.context(mpi.base_contexts_ + index), index, &obs.pvars),
        requests(&obs.pvars) {}

  obs::Domain& obs;       // registry-owned "taskN.ep<i>" counter domain
  pamix::Endpoint core;   // thread binding + owner-only advance
  RequestPool requests;   // per-endpoint pool; releases stay endpoint-local
  Request done_send;      // shared pre-finished request for immediate sends
};

MpiEndpoint::MpiEndpoint(Mpi& mpi, int index)
    : mpi_(mpi), index_(index), impl_(std::make_unique<Impl>(mpi, index)) {
  // Endpoint-shard telemetry lands in this endpoint's own domain, so two
  // endpoints never write the same counter cache line.
  mpi.impl_->matcher.bind_endpoint_pvars(index, &impl_->obs.pvars);
  // An immediate send is complete the moment send_immediate returns, so
  // every such isend hands back the same pre-finished request instead of
  // cycling one through the pool — the fast path allocates nothing.
  impl_->done_send = impl_->requests.acquire(RequestImpl::Kind::Send);
  impl_->done_send->finish();
}

MpiEndpoint::~MpiEndpoint() = default;

bool MpiEndpoint::bind() { return impl_->core.bind(); }
bool MpiEndpoint::unbind() { return impl_->core.unbind(); }
bool MpiEndpoint::bound() const { return impl_->core.bound(); }
bool MpiEndpoint::bound_to_caller() const { return impl_->core.bound_to_caller(); }
pami::Context& MpiEndpoint::context() { return impl_->core.context(); }

Request MpiEndpoint::isend(const void* buf, std::size_t bytes, int dest, int tag,
                           const Comm& c, int dest_ep) {
  if (!bound_to_caller()) {
    // Unbound caller: degrade to the hashed path (thread-safe under the
    // library's normal rules) rather than touch owner-private state.
    impl_->obs.pvars.add(obs::Pvar::EpFallbackSends);
    return mpi_.isend(buf, bytes, dest, tag, c);
  }
  if (dest_ep < 0) dest_ep = index_;
  impl_->obs.pvars.add(obs::Pvar::MpiIsends);
  pami::Context& ctx = impl_->core.context();

  Envelope env;
  env.comm = c->id();
  env.src_rank = c->my_rank;
  env.tag = tag;
  env.ep = static_cast<std::int16_t>(dest_ep);
  env.src_ep = static_cast<std::int16_t>(index_);
  env.seq = mpi_.impl_->matcher.next_send_seq_ep(index_, c->id(), dest, dest_ep);

  const pami::Endpoint pdest{
      c->geometry->task_of(static_cast<std::size_t>(dest)),
      static_cast<std::int16_t>(mpi_.base_contexts_ + dest_ep)};

  // Fast path: whole message in one packet via send_immediate — no
  // SendParams, no callbacks, payload staged on return. Eagain drains
  // only this endpoint's injection FIFOs (owner-private), so the retry
  // never touches another endpoint's devices.
  if (sizeof(env) + bytes <= mpi_.world_.client_world().config().immediate_limit) {
    pami::Result r;
    hw::Waiter waiter;
    while ((r = ctx.send_immediate(kMpiDispatchId, pdest, &env, sizeof(env), buf, bytes)) ==
           pami::Result::Eagain) {
      // Backpressure: the peer has not drained its reception FIFO yet.
      ctx.advance_injection();
      waiter.pause();
    }
    if (r == pami::Result::Success) {
      impl_->obs.pvars.add(obs::Pvar::EpFastSends);
      return impl_->done_send;
    }
  }
  // Large (or shm-routed) message: the full protocol send on our own
  // context. Still lock-free — the context is owner-private.
  impl_->obs.pvars.add(obs::Pvar::EpFallbackSends);
  Request req = impl_->requests.acquire(RequestImpl::Kind::Send);
  pami::SendParams p;
  p.dispatch = kMpiDispatchId;
  p.dest = pdest;
  p.header = &env;
  p.header_bytes = sizeof(env);
  p.data = buf;
  p.data_bytes = bytes;
  p.on_local_done = [req] { req->finish(); };
  hw::Waiter waiter;
  while (ctx.send(p) == pami::Result::Eagain) waiter.step(ctx.advance());
  return req;
}

Request MpiEndpoint::irecv(void* buf, std::size_t bytes, int source, int tag, const Comm& c) {
  if (!bound_to_caller()) {
    impl_->obs.pvars.add(obs::Pvar::EpFallbackSends);
    return mpi_.irecv(buf, bytes, source, tag, c);
  }
  Matcher& m = mpi_.impl_->matcher;
  if (source == kAnySource) {
    // Wildcard: publish on the global serialized list (counted as a
    // fallback), sweep our own backlog right here (we are the owner), and
    // ask sibling endpoints to sweep theirs.
    impl_->obs.pvars.add(obs::Pvar::EpFallbackSends);
    Request req = mpi_.irecv(buf, bytes, source, tag, c);
    if (m.endpoint_fallback()) m.scan_endpoint_for_global(index_);
    return req;
  }
  impl_->obs.pvars.add(obs::Pvar::MpiIrecvs);
  Request req = impl_->requests.acquire(RequestImpl::Kind::Recv);
  req->buffer = buf;
  req->capacity = bytes;
  m.post_recv_ep(index_, req, c->id(), source, tag);
  return req;
}

void MpiEndpoint::wait(Request& r, Status* status) {
  if (!bound_to_caller()) {
    mpi_.wait(r, status);
    return;
  }
  // Owner spin: advance only this endpoint's context. If it goes idle for
  // a long stretch (e.g. waiting on a wildcard that will complete through
  // a hashed context), lend a hand to the shared progress loop — that
  // path trylocks, so it is safe from a bound thread.
  std::uint32_t idle = 0;
  hw::Waiter waiter;
  while (!r->done()) {
    const std::size_t events = impl_->core.advance();
    if (events > 0) {
      idle = 0;
    } else if ((++idle & 1023) == 0) {
      mpi_.progress();
    }
    waiter.step(events);
  }
  if (status != nullptr) *status = r->status;
  r.reset();
}

bool MpiEndpoint::test(Request& r, Status* status) {
  if (!bound_to_caller()) return mpi_.test(r, status);
  impl_->core.advance();
  if (!r->done()) return false;
  if (status != nullptr) *status = r->status;
  r.reset();
  return true;
}

void MpiEndpoint::progress() { impl_->core.advance(); }

}  // namespace pamix::mpi

#include "core/collectives.h"

#include <cassert>
#include <cstring>
#include <map>
#include <vector>

#include "core/buffer_pool.h"
#include "core/env.h"
#include "runtime/collective_engine.h"
#include "sim/rect_bcast.h"

namespace pamix::pami::coll {

CollTuning& tuning() {
  static CollTuning t = [] {
    CollTuning v;
    v.slice_bytes = core::env_size_or("PAMIX_COLL_SLICE", kPipelineSliceBytes);
    if (v.slice_bytes == 0 || v.slice_bytes % 64 != 0) {
      std::fprintf(stderr,
                   "pamix: ignoring invalid PAMIX_COLL_SLICE=%zu (not a positive multiple "
                   "of 64; keeping %zu)\n",
                   v.slice_bytes, kPipelineSliceBytes);
      v.slice_bytes = kPipelineSliceBytes;
    }
    v.radix = core::env_int_or("PAMIX_COLL_RADIX", v.radix, 2, 64);
    v.overlap = core::env_flag_or("PAMIX_COLL_OVERLAP", true);
    // 0 is a deliberate setting (store-and-forward A/B arm), so only the
    // env parser's own validation applies; env_size_or keeps the K/M
    // suffix discipline and the 256MiB typo cap.
    v.rect_chunk = core::env_size_or("PAMIX_RECT_CHUNK", kRectChunkBytes);
    return v;
  }();
  return t;
}

namespace {

// ------------------------------------------------------- software engine --

struct CollHeader {
  std::int32_t geom = 0;
  std::uint64_t seq = 0;
  std::int32_t phase = 0;
  // Chunk index within a streamed rectangle-broadcast relay (data and ack
  // phases); 0 for every other collective, where (geom, seq, phase, src)
  // alone is unique.
  std::uint32_t chunk = 0;
};

/// Per-client matching state for the software collectives, plus the
/// client's "coll" telemetry domain and its pooled payload storage.
///
/// Matching is a flat slot table scanned linearly: a software collective
/// has at most a handful of messages outstanding per rank (tree fan-in
/// plus a dissemination round), so a scan over a few cache lines beats the
/// std::map node churn this replaced — and slot reuse means zero
/// steady-state allocation. Deposits may run on any thread advancing a
/// context, so the pool's owner-thread acquire is serialized under `mu`
/// along with the table itself.
struct CollState {
  hw::L2AtomicMutex mu;
  obs::Domain& obs;
  core::BufferPool pool;  // guarded by mu (acquire side)

  struct Slot {
    std::int32_t src = -1;  // -1 = empty
    std::int32_t geom = 0;
    std::int32_t phase = 0;
    std::uint32_t chunk = 0;
    std::uint64_t seq = 0;
    core::Buf data;
  };
  std::vector<Slot> slots;               // grows to peak concurrency, then stable
  std::map<int, std::uint64_t> seq;      // per-geometry operation counter

  /// Reusable per-color scratch of the chunked rectangle relay (one
  /// rectangle broadcast in flight per task at a time — the call is
  /// blocking). Vectors grow to the geometry's color/children counts on
  /// first use and are reused afterwards: zero steady-state allocation.
  struct RectColor {
    std::size_t off = 0;        // slice offset in the user buffer
    std::size_t len = 0;        // slice length
    std::uint32_t nchunks = 0;
    std::uint32_t recv_next = 0;  // chunks landed from the parent
    std::uint32_t fwd_next = 0;   // chunks forwarded to every child
    bool done = false;
    int parent_rank = -1;  // rank of the parent node's master (-1 at the root node)
    std::vector<std::uint32_t> acked;  // per child: chunks confirmed received
  };
  std::vector<RectColor> rect;
  std::uint64_t rect_inflight_peak = 0;  // mirror of the peak-tracking pvar

  explicit CollState(int task)
      : obs(obs::Registry::instance().create("coll", task, 0, /*want_ring=*/false)),
        pool(&obs.pvars) {
    obs.pvars.add(obs::Pvar::ConfigCollSlice, tuning().slice_bytes);
    obs.pvars.add(obs::Pvar::ConfigCollRadix, static_cast<std::uint64_t>(tuning().radix));
    obs.pvars.add(obs::Pvar::ConfigRectChunk, tuning().rect_chunk);
  }

  core::Buf acquire(std::size_t n) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    return pool.acquire(n);
  }
  /// Pre-size the deposit pool and the match table for `count` concurrent
  /// `n`-byte deposits, so a demand burst up to that bound cannot grow
  /// either (empty slots match insert_locked's reuse scan).
  void reserve(std::size_t n, std::size_t count) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    reserve_locked(n, count);
  }
  void reserve_locked(std::size_t n, std::size_t count) {
    pool.reserve(n, count);
    if (slots.size() < count) slots.resize(count);
  }
  core::Buf acquire_copy(const void* src, std::size_t n) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    return pool.acquire_copy(src, n);
  }

  void deposit(const CollHeader& h, int src, core::Buf data) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    insert_locked(h, src, std::move(data));
  }

  /// Inline-delivery deposit: one lock acquisition covers both the pooled
  /// copy and the table insert.
  void deposit_copy(const CollHeader& h, int src, const void* bytes, std::size_t n) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    insert_locked(h, src, pool.acquire_copy(bytes, n));
  }

  bool take(std::int32_t geom, std::uint64_t sq, std::int32_t phase, std::int32_t src,
            core::Buf& out, std::uint32_t chunk = 0) {
    std::lock_guard<hw::L2AtomicMutex> g(mu);
    for (Slot& s : slots) {
      if (s.src == src && s.seq == sq && s.geom == geom && s.phase == phase &&
          s.chunk == chunk) {
        out = std::move(s.data);
        s.src = -1;
        return true;
      }
    }
    return false;
  }

 private:
  void insert_locked(const CollHeader& h, int src, core::Buf data) {
    obs.pvars.add(obs::Pvar::CollSwDeposits);
    for (Slot& s : slots) {
      if (s.src < 0) {
        s.src = src;
        s.geom = h.geom;
        s.phase = h.phase;
        s.chunk = h.chunk;
        s.seq = h.seq;
        s.data = std::move(data);
        return;
      }
    }
    Slot s;
    s.src = src;
    s.geom = h.geom;
    s.phase = h.phase;
    s.chunk = h.chunk;
    s.seq = h.seq;
    s.data = std::move(data);
    slots.push_back(std::move(s));
  }
};

CollState& state_of(Client& client) {
  auto& cookie = client.collective_cookie();
  if (!cookie) cookie = std::make_shared<CollState>(client.task());
  return *std::static_pointer_cast<CollState>(cookie);
}

/// Deposits a rank may hold beyond the current operation's own fan-in:
/// peers that already left an operation (a broadcast root, a finished
/// barrier round) run their next eager sends into this rank before it
/// takes them. Blocking collectives keep that skew to a few operations.
constexpr std::size_t kSwDepositsAhead = 8;

/// Enter a software collective on `g`: returns this task's next operation
/// sequence number, and under the same lock pre-sizes the match table and
/// the deposit pool's `bytes` class for `fan_in` deposits of this
/// operation plus kSwDepositsAhead early ones. Neither then grows mid-run
/// from scheduling luck: a steady state allocates nothing once each
/// operation shape has been entered once.
std::uint64_t enter_software(Client& client, Geometry& g, std::size_t bytes,
                             std::size_t fan_in) {
  CollState& st = state_of(client);
  std::lock_guard<hw::L2AtomicMutex> lk(st.mu);
  st.reserve_locked(bytes, fan_in + kSwDepositsAhead);
  return st.seq[g.id()]++;
}

/// Rounds of a radix-`r` tree over `n` ranks: ceil(log_r n).
std::size_t tree_levels(std::size_t n, std::size_t r) {
  std::size_t levels = 0;
  for (std::size_t span = 1; span < n; span *= r) ++levels;
  return levels;
}

std::size_t progress(Context& ctx);

/// The blocking loops in this file: advance the owning client's contexts
/// (real work) and take a hw::Waiter step on the result.
class ProgressSpin {
 public:
  explicit ProgressSpin(Context& ctx) : ctx_(ctx) {}
  void spin() { waiter_.step(progress(ctx_)); }
  void reset() { waiter_.reset(); }

 private:
  Context& ctx_;
  hw::Waiter waiter_;
};

/// Send one software-collective message. Small messages are copied by the
/// eager/inline protocols, so the caller's buffer is immediately free;
/// rendezvous-sized ones are pulled from the caller's buffer later, so the
/// caller passes `pending` (on its stack) and must drain it (drain_sends)
/// before its buffers go out of scope. `chunk` disambiguates the streamed
/// rectangle-relay messages sharing one (seq, phase); `hints` carries
/// torus hint bits for sends that must stay on an algorithm-claimed link.
void send_coll(Context& ctx, Geometry& g, std::uint64_t seq, int phase, std::size_t dest_rank,
               const void* data, std::size_t bytes, std::atomic<int>& pending,
               std::uint32_t chunk = 0, std::uint16_t hints = 0) {
  CollHeader h;
  h.geom = g.id();
  h.seq = seq;
  h.phase = phase;
  h.chunk = chunk;
  SendParams p;
  p.dispatch = kCollDispatchId;
  p.dest = Endpoint{g.task_of(dest_rank), 0};
  p.header = &h;
  p.header_bytes = sizeof(h);
  p.data = data;
  p.data_bytes = bytes;
  p.hints = hints;
  const ClientConfig& cfg = ctx.client().world().config();
  // The MU stages each packet until the receiver polls it, and a peer
  // leaves up to kSwDepositsAhead messages untaken: size the staging
  // toward this peer for that many, so a late receiver cannot grow it.
  ctx.reserve_sends(p.dest, sizeof(h), bytes, kSwDepositsAhead);
  if (bytes > std::min(cfg.eager_limit, cfg.shm_eager_limit)) {
    pending.fetch_add(1, std::memory_order_acq_rel);
    std::atomic<int>* counter = &pending;
    p.on_remote_done = [counter] { counter->fetch_sub(1, std::memory_order_acq_rel); };
  }
  ProgressSpin spin(ctx);
  while (ctx.send(p) == Result::Eagain) spin.spin();
}

/// Wait until every rendezvous-sized send of this collective has been
/// pulled by its receiver (sender buffers may then be reused/freed).
void drain_sends(Context& ctx, std::atomic<int>& pending) {
  ProgressSpin spin(ctx);
  while (pending.load(std::memory_order_acquire) > 0) spin.spin();
}

core::Buf wait_coll(Context& ctx, Geometry& g, std::uint64_t seq, int phase,
                    std::size_t src_rank, std::uint32_t chunk = 0) {
  CollState& st = state_of(ctx.client());
  const std::int32_t src = g.task_of(src_rank);
  core::Buf out;
  ProgressSpin spin(ctx);
  while (!st.take(g.id(), seq, phase, src, out, chunk)) spin.spin();
  return out;
}

/// Progress while blocked inside a collective. The caller owns `ctx`
/// (possibly holding its lock), but messages and pending injections may
/// live on the client's other contexts — e.g. point-to-point traffic that
/// was in flight when the collective started — so those are advanced too,
/// under trylock so active commthreads are never raced.
std::size_t progress(Context& ctx) {
  std::size_t events = ctx.advance();
  Client& client = ctx.client();
  for (int i = 0; i < client.context_count(); ++i) {
    Context& other = client.context(i);
    if (&other == &ctx) continue;
    if (other.trylock()) {
      events += other.advance();
      other.unlock();
    }
  }
  return events;
}

// ----------------------------------------------------------- local helpers --

struct LocalInfo {
  Geometry::NodeGroup* group = nullptr;
  bool is_master = false;
  int local_index = 0;
  int local_count = 1;
};

LocalInfo local_info(Context& ctx, Geometry& g) {
  LocalInfo li;
  const int task = ctx.client().task();
  const int node = ctx.client().machine().node_of_task(task);
  li.group = &g.node_group(node);
  li.is_master = li.group->master_task == task;
  li.local_index = g.local_index(task);
  li.local_count = static_cast<int>(li.group->local_tasks.size());
  return li;
}

void local_barrier(Context& ctx, LocalInfo& li) {
  li.group->barrier->arrive_and_wait([&ctx] { progress(ctx); });
}

/// Copy out of a peer's buffer through the CNK global VA.
const std::byte* peer_read(Context& ctx, int peer_task, const void* addr, std::size_t bytes) {
  runtime::Machine& m = ctx.client().machine();
  const std::byte* p = ctx.client().node().global_va().translate(
      m.local_index_of_task(peer_task), addr, bytes);
  assert(p != nullptr && "peer buffer not visible through global VA");
  return p;
}

// --------------------------------------------------- optimized algorithms --

/// Engine completion hook: a network round of this node group landed.
/// Runs on whichever master's contribution fired the round (possibly a
/// different node's thread), under no engine locks. Rounds of one group
/// complete in order — round k needs every master's arm of k, and each
/// master arms k only after arming k-1 — so a bare increment is a correct
/// completion count.
void round_complete_hook(void* arg) {
  static_cast<Geometry::NodeGroup*>(arg)->net_done.fetch_add(1, std::memory_order_acq_rel);
}

void barrier_optimized(Context& ctx, Geometry& g) {
  LocalInfo li = local_info(ctx, g);
  local_barrier(ctx, li);  // phase 1: everyone local arrived
  if (li.is_master) {
    hw::GiBarrier* gi = ctx.client().machine().gi_network().barrier(g.classroute());
    const std::uint64_t token = gi->arrive();
    ProgressSpin spin(ctx);
    while (!gi->done(token)) spin.spin();
  }
  local_barrier(ctx, li);  // phase 2: release after the GI round
}

// The slice pipeline (Figure 4), shared by broadcast and allreduce.
//
// Per-slice barriers are gone: the schedule runs on three monotone
// counters in the NodeGroup (armed / net_done / math_done — the
// sense-reversing phase counter generalized to a pipeline). Each op
// captures their values at entry (`*0` bases); one entry barrier
// publishes buffers and one exit barrier retires the op. In between:
//
//   rank p, slice k:  wait armed >= k-1      (staging half k%2 consumed)
//                     reduce sub-range  -> staging[k%2]   (math_done += 1)
//   master, slice k:  wait math_done >= (k+1)*local_count
//                     arm round k            (armed += 1)  — NO done() poll:
//                     completion arrives via round_complete_hook (net_done)
//                     while the master is already doing slice k+1's math
//   peers:            copy slice j out of the master's recvbuf as soon as
//                     net_done > j, overlapping rounds still in flight
/// Cap on network rounds a master may have in flight beyond the last
/// completed one — the model's stand-in for the finite injection FIFO.
/// A live round keeps no payload in the engine (it accumulates in the
/// first contributor's recvbuf), but it holds one of the engine's 64
/// round slots: an unthrottled master pipelining a 32MB message would arm
/// 512 rounds at once, and the engine aborts past 64 in flight.
constexpr std::uint64_t kMaxInflightRounds = 8;

void allreduce_optimized(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
                         std::size_t bytes, hw::CombineOp op, hw::CombineType type) {
  LocalInfo li = local_info(ctx, g);
  Geometry::NodeGroup& grp = *li.group;
  runtime::Machine& m = ctx.client().machine();
  runtime::CollectiveNetworkEngine& eng = m.collective_engine(g.classroute());
  CollState& st = state_of(ctx.client());
  const std::size_t elem = hw::combine_type_size(type);

  // Slice size: runtime-tunable; align down to the element width so no
  // element straddles a slice boundary (tuning() guarantees a multiple of
  // 64, which covers every CombineType, but stay defensive).
  std::size_t S = tuning().slice_bytes;
  S -= S % elem;
  if (S == 0) S = elem;
  const std::size_t nslices = (bytes + S - 1) / S;
  const bool overlap = tuning().overlap;
  const bool tracing = ctx.obs().trace.enabled();  // spans read the clock only then

  // Counter bases, captured before the entry barrier: the previous op's
  // exit barrier quiesced the counters, and every increment of this op
  // happens after all local ranks pass the entry barrier.
  const std::uint64_t armed0 = grp.armed.load(std::memory_order_acquire);
  const std::uint64_t done0 = grp.net_done.load(std::memory_order_acquire);
  const std::uint64_t math0 = grp.math_done.load(std::memory_order_acquire);

  grp.contrib[static_cast<std::size_t>(li.local_index)].publish(sendbuf);
  if (li.is_master) {
    if (grp.staging.size() < 2 * S) grp.staging.resize(2 * S);  // double buffer
    grp.master_slot.publish(recvbuf);
  }
  local_barrier(ctx, li);  // entry: buffers published, staging sized

  const auto lc = static_cast<std::uint64_t>(li.local_count);
  ProgressSpin spin(ctx);
  auto wait_for = [&](std::atomic<std::uint64_t>& c, std::uint64_t target) {
    while (c.load(std::memory_order_acquire) < target) spin.spin();
  };
  auto in_flight = [&] {
    return grp.armed.load(std::memory_order_acquire) >
           grp.net_done.load(std::memory_order_acquire);
  };

  // Peers retire completed slices out of the master's recvbuf; lazily
  // (after each slice's math) and finally blocking for the tail.
  std::size_t next_copy = 0;
  auto copy_ready = [&](bool block) {
    const void* mbuf = grp.master_slot.ptr.load(std::memory_order_acquire);
    for (;;) {
      std::uint64_t ready = grp.net_done.load(std::memory_order_acquire) - done0;
      if (ready > nslices) ready = nslices;
      while (next_copy < ready) {
        const std::size_t off = next_copy * S;
        const std::size_t slice = std::min(S, bytes - off);
        const bool overlapped = in_flight();
        const std::uint64_t t0 = tracing ? obs::now_ns() : 0;
        const std::byte* src = peer_read(ctx, grp.master_task,
                                         static_cast<const std::byte*>(mbuf) + off, slice);
        std::memcpy(static_cast<std::byte*>(recvbuf) + off, src, slice);
        ctx.obs().trace.record_span(obs::TraceEv::CollCopyOut, t0,
                                    static_cast<std::uint32_t>(slice));
        if (overlapped) st.obs.pvars.add(obs::Pvar::CollOverlapBytes, slice);
        ++next_copy;
      }
      if (!block || next_copy >= nslices) return;
      spin.spin();
    }
  };

  for (std::size_t k = 0; k < nslices; ++k) {
    const std::size_t off = k * S;
    const std::size_t slice = std::min(S, bytes - off);
    std::byte* stage = grp.staging.data() + (k % 2) * S;

    // Staging half (k % 2) was last consumed when round k-2 was armed
    // (the engine consumes a contribution before the arm returns); wait
    // for that arm before overwriting it. The first two slices start on
    // fresh halves.
    if (k >= 2) wait_for(grp.armed, armed0 + (k - 1));

    // Parallel local math (Figure 3): each local process reduces its
    // sub-range of the slice across all local contribution buffers —
    // concurrently with the previous slice's network round (Figure 4).
    const bool overlapped = in_flight();
    const std::uint64_t t0 = tracing ? obs::now_ns() : 0;
    std::size_t sub_bytes = 0;
    {
      const std::size_t elems = slice / elem;
      const std::size_t per = (elems + static_cast<std::size_t>(li.local_count) - 1) /
                              static_cast<std::size_t>(li.local_count);
      const std::size_t lo = std::min(per * static_cast<std::size_t>(li.local_index), elems);
      const std::size_t hi = std::min(lo + per, elems);
      if (hi > lo) {
        const std::size_t sub_off = lo * elem;
        sub_bytes = (hi - lo) * elem;
        bool first = true;
        for (int i = 0; i < li.local_count; ++i) {
          const void* contrib_base =
              grp.contrib[static_cast<std::size_t>(i)].ptr.load(std::memory_order_acquire);
          const std::byte* src =
              peer_read(ctx, grp.local_tasks[static_cast<std::size_t>(i)],
                        static_cast<const std::byte*>(contrib_base) + off + sub_off, sub_bytes);
          if (first) {
            std::memcpy(stage + sub_off, src, sub_bytes);
            first = false;
          } else {
            runtime::combine_buffers(op, type, stage + sub_off, src, sub_bytes);
          }
        }
      }
    }
    if (sub_bytes > 0) {
      ctx.obs().trace.record_span(obs::TraceEv::CollSliceMath, t0,
                                  static_cast<std::uint32_t>(sub_bytes));
      st.obs.pvars.add(obs::Pvar::CollLocalReduceBytes, sub_bytes);
      if (overlapped) st.obs.pvars.add(obs::Pvar::CollOverlapBytes, sub_bytes);
    }
    grp.math_done.fetch_add(1, std::memory_order_acq_rel);

    if (li.is_master) {
      st.obs.pvars.add(obs::Pvar::CollSlices);
      // Arm round k once every local rank finished this slice's math,
      // then move straight on to slice k+1 — no done() polling. The
      // in-flight cap bounds the engine's live rounds, like a finite
      // injection FIFO would on the real network.
      if (k > kMaxInflightRounds) wait_for(grp.net_done, done0 + k - kMaxInflightRounds);
      wait_for(grp.math_done, math0 + (k + 1) * lc);
      const std::uint64_t round = grp.round.fetch_add(1, std::memory_order_acq_rel);
      eng.contribute_reduce(round, stage, slice, op, type,
                            static_cast<std::byte*>(recvbuf) + off, round_complete_hook,
                            &grp);
      grp.armed.fetch_add(1, std::memory_order_acq_rel);
      st.obs.pvars.add(obs::Pvar::CollNetRounds);
      ctx.obs().trace.record(obs::TraceEv::CollArm, static_cast<std::uint32_t>(round));
      if (!overlap) wait_for(grp.net_done, done0 + k + 1);
    } else {
      copy_ready(/*block=*/false);
    }
  }

  // Drain: the master waits for the final round's hook; peers block for
  // the remaining copy-outs.
  if (li.is_master) {
    wait_for(grp.net_done, done0 + nslices);
  } else {
    copy_ready(/*block=*/true);
  }
  local_barrier(ctx, li);  // exit: results copied, counters quiescent
}

void broadcast_optimized(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
                         std::size_t bytes) {
  LocalInfo li = local_info(ctx, g);
  Geometry::NodeGroup& grp = *li.group;
  runtime::Machine& m = ctx.client().machine();
  runtime::CollectiveNetworkEngine& eng = m.collective_engine(g.classroute());
  CollState& st = state_of(ctx.client());
  const int root_task = g.task_of(root_rank);
  const int root_node = m.node_of_task(root_task);
  const int my_task = ctx.client().task();
  const bool on_root_node = m.node_of_task(my_task) == root_node;

  // Long broadcasts slice exactly like reductions: the network pushes
  // slice k down the classroute while peers copy slice k-1 out of their
  // master's buffer.
  const std::size_t S = tuning().slice_bytes;
  const std::size_t nslices = (bytes + S - 1) / S;  // 0 when bytes == 0
  const bool overlap = tuning().overlap;
  const bool tracing = ctx.obs().trace.enabled();  // spans read the clock only then
  const std::uint64_t done0 = grp.net_done.load(std::memory_order_acquire);

  if (my_task == root_task) grp.root_slot.publish(buffer);
  if (li.is_master) grp.master_slot.publish(buffer);
  local_barrier(ctx, li);  // entry

  ProgressSpin spin(ctx);
  auto wait_net = [&](std::uint64_t target) {
    while (grp.net_done.load(std::memory_order_acquire) < target) spin.spin();
  };

  if (li.is_master) {
    const std::byte* src = nullptr;
    if (on_root_node && nslices > 0) {
      const void* r = grp.root_slot.ptr.load(std::memory_order_acquire);
      src = my_task == root_task ? static_cast<const std::byte*>(r)
                                 : peer_read(ctx, root_task, r, bytes);
    }
    for (std::size_t k = 0; k < nslices; ++k) {
      const std::size_t off = k * S;
      const std::size_t slice = std::min(S, bytes - off);
      // Finite-FIFO throttle: bound the engine's live rounds instead of
      // arming the whole message.
      if (k > kMaxInflightRounds) wait_net(done0 + k - kMaxInflightRounds);
      const std::uint64_t round = grp.round.fetch_add(1, std::memory_order_acq_rel);
      eng.contribute_broadcast(round, on_root_node, on_root_node ? src + off : nullptr, slice,
                               static_cast<std::byte*>(buffer) + off, round_complete_hook,
                               &grp);
      grp.armed.fetch_add(1, std::memory_order_acq_rel);
      st.obs.pvars.add(obs::Pvar::CollNetRounds);
      st.obs.pvars.add(obs::Pvar::CollSlices);
      ctx.obs().trace.record(obs::TraceEv::CollArm, static_cast<std::uint32_t>(round));
      if (!overlap) wait_net(done0 + k + 1);
    }
    wait_net(done0 + nslices);  // every slice landed in our buffer
  } else if (my_task != root_task) {
    // Peers pipeline the copy-out against rounds still in flight.
    const void* mbuf = grp.master_slot.ptr.load(std::memory_order_acquire);
    for (std::size_t k = 0; k < nslices; ++k) {
      wait_net(done0 + k + 1);
      const std::size_t off = k * S;
      const std::size_t slice = std::min(S, bytes - off);
      const bool overlapped = grp.armed.load(std::memory_order_acquire) >
                              grp.net_done.load(std::memory_order_acquire);
      const std::uint64_t t0 = tracing ? obs::now_ns() : 0;
      const std::byte* psrc =
          peer_read(ctx, grp.master_task, static_cast<const std::byte*>(mbuf) + off, slice);
      std::memcpy(static_cast<std::byte*>(buffer) + off, psrc, slice);
      ctx.obs().trace.record_span(obs::TraceEv::CollCopyOut, t0,
                                  static_cast<std::uint32_t>(slice));
      if (overlapped) st.obs.pvars.add(obs::Pvar::CollOverlapBytes, slice);
    }
  }
  local_barrier(ctx, li);  // exit: master buffer stable until every peer copied
}

// ---------------------------------------------------- software algorithms --

/// k-nomial tree support: the "scale" of a relative rank is r^d where d is
/// the position of its lowest nonzero base-r digit — the round in which it
/// receives from its parent. The root's scale is the first power of r
/// >= n. With r == 2 this is exactly the classic binomial tree.
std::size_t knomial_scale(std::size_t rel, std::size_t n, std::size_t r) {
  std::size_t scale = 1;
  while (scale < n && rel % (scale * r) == 0) scale *= r;
  return scale;
}

void barrier_software(Context& ctx, Geometry& g) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::uint64_t seq = enter_software(ctx.client(), g, 0, tree_levels(n, 2));
  std::atomic<int> pending{0};
  // Dissemination barrier: log2(n) rounds of token exchange.
  for (std::size_t dist = 1, phase = 0; dist < n; dist *= 2, ++phase) {
    const std::size_t to = (me + dist) % n;
    const std::size_t from = (me + n - dist) % n;
    send_coll(ctx, g, seq, static_cast<int>(phase), to, nullptr, 0, pending);
    wait_coll(ctx, g, seq, static_cast<int>(phase), from);
  }
}

void broadcast_software(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
                        std::size_t bytes) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::size_t rel = (me + n - root_rank) % n;
  const std::uint64_t seq = enter_software(ctx.client(), g, bytes, 1);
  const auto radix = static_cast<std::size_t>(tuning().radix);
  std::atomic<int> pending{0};

  const std::size_t scale = knomial_scale(rel, n, radix);
  if (rel != 0) {
    // Receive from the parent: zero our lowest nonzero base-r digit.
    const std::size_t parent_rel = rel - ((rel / scale) % radix) * scale;
    core::Buf data = wait_coll(ctx, g, seq, 0, (parent_rel + root_rank) % n);
    assert(data.size() == bytes);
    if (bytes > 0) std::memcpy(buffer, data.data(), bytes);
  }
  // Forward to children — rel + j*s for every scale below ours, largest
  // subtrees first so the deepest subtree starts earliest.
  for (std::size_t s = scale / radix; s > 0; s /= radix) {
    for (std::size_t j = 1; j < radix; ++j) {
      const std::size_t child_rel = rel + j * s;
      if (child_rel >= n) break;
      send_coll(ctx, g, seq, 0, (child_rel + root_rank) % n, buffer, bytes, pending);
    }
  }
  drain_sends(ctx, pending);
}

void reduce_software(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf,
                     void* recvbuf, std::size_t bytes, hw::CombineOp op, hw::CombineType type) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::size_t rel = (me + n - root_rank) % n;
  const auto radix = static_cast<std::size_t>(tuning().radix);
  // Fan-in: up to radix-1 children per tree level, plus the accumulator.
  const std::uint64_t seq =
      enter_software(ctx.client(), g, bytes, (radix - 1) * tree_levels(n, radix) + 1);
  CollState& st = state_of(ctx.client());
  std::atomic<int> pending{0};

  core::Buf acc = st.acquire_copy(sendbuf, bytes);
  // Mirror of the broadcast tree: combine children (smallest scale first —
  // they finish their subtrees first), then send the partial up.
  const std::size_t scale = knomial_scale(rel, n, radix);
  for (std::size_t s = 1; s < scale; s *= radix) {
    for (std::size_t j = 1; j < radix; ++j) {
      const std::size_t child_rel = rel + j * s;
      if (child_rel >= n) break;
      core::Buf data = wait_coll(ctx, g, seq, 1, (child_rel + root_rank) % n);
      assert(data.size() == bytes);
      if (bytes > 0) runtime::combine_buffers(op, type, acc.data(), data.data(), bytes);
    }
  }
  if (rel != 0) {
    const std::size_t parent_rel = rel - ((rel / scale) % radix) * scale;
    send_coll(ctx, g, seq, 1, (parent_rel + root_rank) % n, acc.data(), bytes, pending);
    drain_sends(ctx, pending);  // the parent pulls from `acc`
  } else if (recvbuf != nullptr && bytes > 0) {
    std::memcpy(recvbuf, acc.data(), bytes);
  }
}

}  // namespace

// ------------------------------------------------------------- public API --

void register_collective_dispatch(Client& client) {
  state_of(client);  // create the matching state while construction is single-threaded
  for (int c = 0; c < client.context_count(); ++c) {
    client.context(c).set_dispatch(
        kCollDispatchId,
        [&client](Context&, const void* header, std::size_t header_bytes, const void* pipe,
                  std::size_t pipe_bytes, std::size_t total, Endpoint origin,
                  RecvDescriptor* recv) {
          CollHeader h;
          assert(header_bytes == sizeof(h));
          (void)header_bytes;
          std::memcpy(&h, header, sizeof(h));
          CollState& st = state_of(client);
          if (recv == nullptr) {
            // Whole message arrived inline: pooled copy + insert in one
            // lock acquisition.
            st.deposit_copy(h, origin.task, pipe, pipe_bytes);
            return;
          }
          // Rendezvous: pull straight into a pooled block, then move it
          // into the match table on completion.
          core::Buf buf = st.acquire(total);
          recv->buffer = buf.data();
          recv->bytes = total;
          recv->on_complete = [&st, h, src = origin.task, b = std::move(buf)]() mutable {
            st.deposit(h, src, std::move(b));
          };
        });
  }
}

CollStateStats coll_state_stats(Client& client) {
  CollState& st = state_of(client);
  std::lock_guard<hw::L2AtomicMutex> g(st.mu);
  return {st.pool.misses(), st.slots.size()};
}

void software_barrier(Context& ctx, Geometry& g) { barrier_software(ctx, g); }

void barrier(Context& ctx, Geometry& g) {
  if (g.optimized()) {
    barrier_optimized(ctx, g);
  } else {
    barrier_software(ctx, g);
  }
}

void broadcast(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
               std::size_t bytes) {
  if (g.optimized()) {
    broadcast_optimized(ctx, g, root_rank, buffer, bytes);
  } else {
    broadcast_software(ctx, g, root_rank, buffer, bytes);
  }
}

void allreduce(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf, std::size_t bytes,
               hw::CombineOp op, hw::CombineType type) {
  if (g.optimized()) {
    allreduce_optimized(ctx, g, sendbuf, recvbuf, bytes, op, type);
  } else {
    reduce_software(ctx, g, 0, sendbuf, recvbuf, bytes, op, type);
    broadcast_software(ctx, g, 0, recvbuf, bytes);
  }
}

void reduce(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf, void* recvbuf,
            std::size_t bytes, hw::CombineOp op, hw::CombineType type) {
  if (g.optimized()) {
    // Collective-network reduce delivers everywhere; non-roots discard
    // into pooled scratch (the hardware writes every node's master
    // regardless).
    if (*g.rank_of(ctx.client().task()) == root_rank) {
      allreduce_optimized(ctx, g, sendbuf, recvbuf, bytes, op, type);
    } else {
      core::Buf scratch = state_of(ctx.client()).acquire(bytes);
      allreduce_optimized(ctx, g, sendbuf, scratch.data(), bytes, op, type);
    }
  } else {
    reduce_software(ctx, g, root_rank, sendbuf, recvbuf, bytes, op, type);
  }
}

void alltoall(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
              std::size_t bytes_per_rank) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::uint64_t seq = enter_software(ctx.client(), g, bytes_per_rank, n - 1);
  const auto* send = static_cast<const std::byte*>(sendbuf);
  auto* recv = static_cast<std::byte*>(recvbuf);
  std::atomic<int> pending{0};

  // Own block.
  std::memcpy(recv + me * bytes_per_rank, send + me * bytes_per_rank, bytes_per_rank);
  // Pairwise exchange: at step i, send to me+i, receive from me-i.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t to = (me + i) % n;
    const std::size_t from = (me + n - i) % n;
    send_coll(ctx, g, seq, static_cast<int>(i), to, send + to * bytes_per_rank,
              bytes_per_rank, pending);
    core::Buf data = wait_coll(ctx, g, seq, static_cast<int>(i), from);
    assert(data.size() == bytes_per_rank);
    std::memcpy(recv + from * bytes_per_rank, data.data(), bytes_per_rank);
  }
  drain_sends(ctx, pending);
}

void gather(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf, void* recvbuf,
            std::size_t bytes_per_rank) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::uint64_t seq =
      enter_software(ctx.client(), g, bytes_per_rank, me == root_rank ? n - 1 : 0);
  if (me == root_rank) {
    auto* recv = static_cast<std::byte*>(recvbuf);
    std::memcpy(recv + me * bytes_per_rank, sendbuf, bytes_per_rank);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == root_rank) continue;
      core::Buf data = wait_coll(ctx, g, seq, 2, r);
      assert(data.size() == bytes_per_rank);
      std::memcpy(recv + r * bytes_per_rank, data.data(), bytes_per_rank);
    }
  } else {
    std::atomic<int> pending{0};
    send_coll(ctx, g, seq, 2, root_rank, sendbuf, bytes_per_rank, pending);
    drain_sends(ctx, pending);
  }
}

void allgather(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
               std::size_t bytes_per_rank) {
  // Gather to rank 0 then broadcast the concatenation; both legs ride the
  // accelerated paths when the geometry is optimized (broadcast does).
  gather(ctx, g, 0, sendbuf, recvbuf, bytes_per_rank);
  broadcast(ctx, g, 0, recvbuf, bytes_per_rank * g.size());
}

namespace {

/// Cached rectangle-broadcast trees + per-color children lists. Each child
/// entry carries the torus hint bits that force the parent->child hop onto
/// the link the color tree claimed: in an extent-2 ring both directions
/// reach the child, and an unhinted send would let the router collapse the
/// dimension's two color trees onto one wire.
struct RectTrees {
  struct Kid {
    int node = 0;
    std::uint16_t hints = 0;
  };
  explicit RectTrees(const hw::TorusGeometry& torus, const hw::TorusRectangle& rect, int root)
      : trees(torus, rect, root) {
    children.resize(static_cast<std::size_t>(trees.colors()));
    for (int c = 0; c < trees.colors(); ++c) {
      auto& per_node = children[static_cast<std::size_t>(c)];
      for (int node : trees.delivery_order(c)) {
        const int p = trees.parent(c, node);
        if (p < 0) continue;
        per_node[p].push_back(
            Kid{node, hw::hint_for_link(torus, p, node, trees.parent_link_index(c, node))});
      }
    }
  }
  sim::MulticolorRectBcast trees;
  std::vector<std::map<int, std::vector<Kid>>> children;  // per color: node -> kids
};

/// Chunk index of the next acknowledgment a parent expects from a child
/// that has confirmed `acked` chunks: children ack every kRectAckChunks-th
/// chunk and always the last one.
std::uint32_t rect_ack_point(std::uint32_t acked, std::uint32_t nchunks) {
  const std::uint32_t kp = (acked / kRectAckChunks) * kRectAckChunks + (kRectAckChunks - 1);
  return std::min(kp, nchunks - 1);
}

}  // namespace

void rectangle_broadcast(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
                         std::size_t bytes) {
  CollState& st = state_of(ctx.client());
  if (!g.rectangle_eligible()) {
    // The caller asked for torus color trees and is getting the k-nomial
    // software tree instead — a large silent perf cliff on a misconfigured
    // job. Count every degradation and warn once per process.
    st.obs.pvars.add(obs::Pvar::CollRectFallbacks);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "pamix: rectangle_broadcast on non-rectangle geometry %d falls back to "
                   "the regular broadcast (counted in coll.rect_fallbacks)\n",
                   g.id());
    }
    broadcast(ctx, g, root_rank, buffer, bytes);
    return;
  }
  runtime::Machine& m = ctx.client().machine();
  LocalInfo li = local_info(ctx, g);
  const int my_task = ctx.client().task();
  const int my_node = m.node_of_task(my_task);
  const int root_task = g.task_of(root_rank);
  const int root_node = m.node_of_task(root_task);

  // The trees are rooted at the root's node; rebuilding for a new root is
  // legitimate (the hardware reprograms nothing — this is software), but
  // the cache keeps the common fixed-root case cheap.
  auto rt = g.cached<RectTrees>([&] {
    return std::make_shared<RectTrees>(m.geometry(), *g.topology().rectangle(), root_node);
  });
  if (rt->trees.colors() > 0 && rt->trees.delivery_order(0).front() != root_node) {
    // Cached trees rooted elsewhere: build privately for this call.
    rt = std::make_shared<RectTrees>(m.geometry(), *g.topology().rectangle(), root_node);
  }
  // The relay reserves its own chunk deposits below, once it knows them.
  const std::uint64_t seq = enter_software(ctx.client(), g, 0, 0);

  if (my_task == root_task) li.group->root_slot.publish(buffer);
  local_barrier(ctx, li);

  std::atomic<int> pending{0};
  if (li.is_master) {
    auto* buf = static_cast<std::byte*>(buffer);
    if (my_node == root_node && my_task != root_task) {
      const void* src = li.group->root_slot.ptr.load(std::memory_order_acquire);
      std::memcpy(buf, peer_read(ctx, root_task, src, bytes), bytes);
    }
    // Slice the message across colors and relay each slice down its tree.
    // (A single-node rectangle has no colors and nothing to relay.)
    const int ncolors = rt->trees.colors();
    const std::size_t base = ncolors > 0 ? bytes / static_cast<std::size_t>(ncolors) : 0;
    const std::size_t rem = ncolors > 0 ? bytes % static_cast<std::size_t>(ncolors) : 0;
    const std::size_t C = tuning().rect_chunk;
    if (C == 0) {
      // Store-and-forward: each interior master receives its whole color
      // slice before forwarding it. The pre-cut-through schedule, kept as
      // the A/B baseline arm (PAMIX_RECT_CHUNK=0).
      std::size_t off = 0;
      for (int c = 0; c < ncolors; ++c) {
        const std::size_t len = base + (static_cast<std::size_t>(c) < rem ? 1 : 0);
        const int phase = 1000 + c;
        if (my_node != root_node) {
          const int parent_node = rt->trees.parent(c, my_node);
          const int parent_master = g.node_group(parent_node).master_task;
          core::Buf slice = wait_coll(ctx, g, seq, phase, *g.rank_of(parent_master));
          assert(slice.size() == len);
          if (len > 0) std::memcpy(buf + off, slice.data(), len);
        }
        const auto kids = rt->children[static_cast<std::size_t>(c)].find(my_node);
        if (kids != rt->children[static_cast<std::size_t>(c)].end()) {
          for (const RectTrees::Kid& kid : kids->second) {
            const int child_master = g.node_group(kid.node).master_task;
            send_coll(ctx, g, seq, phase, *g.rank_of(child_master), buf + off, len, pending,
                      /*chunk=*/0, kid.hints);
          }
        }
        off += len;
      }
      drain_sends(ctx, pending);  // children pull slices from our buffer
    } else {
      // Cut-through: every color slice streams in C-byte chunks, phase
      // 1000+c carrying the chunk index. An interior master forwards chunk
      // k the moment it lands, while chunk k+1 is still in flight — the
      // relay never waits for a whole slice, so deep trees cost one chunk
      // of fill latency instead of one slice per hop. Children return acks
      // on phase 2000+c at every rect_ack_point; a master stops forwarding
      // a color once any child trails by kRectWindowChunks, bounding the
      // pooled deposits a slow subtree can accumulate.
      if (st.rect.size() < static_cast<std::size_t>(ncolors)) {
        st.rect.resize(static_cast<std::size_t>(ncolors));
      }
      // Pre-size the deposit pool to the schedule's high-water: the ack
      // window bounds untaken parent chunks at kRectWindowChunks per
      // color, and back-to-back broadcasts overlap by at most one
      // iteration (a parent starts seq+1 only after we acked — i.e.
      // landed — all of seq), so 2*W*colors chunks covers any interleave.
      // Demand timing is scheduler-dependent; reserving up front makes
      // the steady-state miss count deterministically zero instead of
      // "zero once jitter has explored the peak".
      st.reserve(C, 2 * kRectWindowChunks * static_cast<std::size_t>(ncolors));
      std::uint64_t inflight = 0;  // forwarded-but-unacked chunks, all colors
      int remaining = 0;
      std::size_t off = 0;
      std::size_t tree_links = 0;  // (color, parent or child) pairs of this master
      for (int c = 0; c < ncolors; ++c) {
        CollState::RectColor& rc = st.rect[static_cast<std::size_t>(c)];
        rc.off = off;
        rc.len = base + (static_cast<std::size_t>(c) < rem ? 1 : 0);
        off += rc.len;
        rc.nchunks = static_cast<std::uint32_t>((rc.len + C - 1) / C);
        rc.recv_next = 0;
        rc.fwd_next = 0;
        rc.done = false;
        rc.parent_rank = -1;
        if (my_node != root_node) {
          const int parent_node = rt->trees.parent(c, my_node);
          rc.parent_rank =
              static_cast<int>(*g.rank_of(g.node_group(parent_node).master_task));
        }
        const auto kids = rt->children[static_cast<std::size_t>(c)].find(my_node);
        const std::size_t nkids = kids != rt->children[static_cast<std::size_t>(c)].end()
                                      ? kids->second.size()
                                      : 0;
        rc.acked.assign(nkids, 0);  // reuses capacity after the first call
        tree_links += nkids + (rc.parent_rank >= 0 ? 1 : 0);
        ++remaining;
      }
      // The same window bounds this master's own sends: chunks down to
      // each child, acks (a header, no data) up to each parent. A parent
      // starts the next broadcast only after every ack of this one, and at
      // most W chunks per (color, child) are unacked. A receiver's MU
      // device releases a packet's staging at its first poll after
      // dispatching it, so the packets of its last batch — at most as many
      // again — may still hold theirs. Reserve that in every FIFO a tree
      // neighbour is reached through.
      const std::size_t staged = 2 * tree_links * kRectWindowChunks;
      for (int c = 0; c < ncolors; ++c) {
        const CollState::RectColor& rc = st.rect[static_cast<std::size_t>(c)];
        if (rc.parent_rank >= 0) {
          ctx.reserve_sends(Endpoint{g.task_of(static_cast<std::size_t>(rc.parent_rank)), 0},
                            sizeof(CollHeader), 0, staged);
        }
        const auto kit = rt->children[static_cast<std::size_t>(c)].find(my_node);
        if (kit == rt->children[static_cast<std::size_t>(c)].end()) continue;
        for (const RectTrees::Kid& kid : kit->second) {
          ctx.reserve_sends(Endpoint{g.node_group(kid.node).master_task, 0}, sizeof(CollHeader),
                            C, staged);
        }
      }
      ProgressSpin spin(ctx);
      while (remaining > 0) {
        bool progressed = false;
        for (int c = 0; c < ncolors; ++c) {
          CollState::RectColor& rc = st.rect[static_cast<std::size_t>(c)];
          if (rc.done) continue;
          const int phase = 1000 + c;
          const auto kit = rt->children[static_cast<std::size_t>(c)].find(my_node);
          const std::vector<RectTrees::Kid>* kids =
              kit != rt->children[static_cast<std::size_t>(c)].end() ? &kit->second : nullptr;
          // 1. Land the next chunk from the parent; ack at ack points.
          if (rc.parent_rank >= 0 && rc.recv_next < rc.nchunks) {
            core::Buf data;
            const std::int32_t parent_task =
                g.task_of(static_cast<std::size_t>(rc.parent_rank));
            if (st.take(g.id(), seq, phase, parent_task, data, rc.recv_next)) {
              const std::uint32_t k = rc.recv_next;
              const std::size_t clen = std::min(C, rc.len - static_cast<std::size_t>(k) * C);
              assert(data.size() == clen);
              std::memcpy(buf + rc.off + static_cast<std::size_t>(k) * C, data.data(), clen);
              rc.recv_next = k + 1;
              if ((k + 1) % kRectAckChunks == 0 || k + 1 == rc.nchunks) {
                send_coll(ctx, g, seq, 2000 + c, static_cast<std::size_t>(rc.parent_rank),
                          nullptr, 0, pending, /*chunk=*/k);
              }
              progressed = true;
            }
          }
          // 2. Collect child acks (each ack point is deterministic, so the
          // expected chunk index is computable from the confirmed count).
          if (kids != nullptr) {
            for (std::size_t i = 0; i < kids->size(); ++i) {
              while (rc.acked[i] < rc.fwd_next) {
                const std::uint32_t kp = rect_ack_point(rc.acked[i], rc.nchunks);
                if (kp >= rc.fwd_next) break;  // not yet forwarded, so not yet acked
                core::Buf ack;
                const std::int32_t kid_task = g.node_group((*kids)[i].node).master_task;
                if (!st.take(g.id(), seq, 2000 + c, kid_task, ack, kp)) break;
                inflight -= kp + 1 - rc.acked[i];
                rc.acked[i] = kp + 1;
                progressed = true;
              }
            }
            // 3. Forward every landed-and-unforwarded chunk the ack window
            // allows (at the root node the whole buffer is already local).
            const std::uint32_t avail = rc.parent_rank < 0 ? rc.nchunks : rc.recv_next;
            while (rc.fwd_next < avail) {
              bool window_open = true;
              for (std::uint32_t a : rc.acked) {
                if (rc.fwd_next >= a + kRectWindowChunks) window_open = false;
              }
              if (!window_open) break;
              const std::uint32_t k = rc.fwd_next;
              const std::size_t clen = std::min(C, rc.len - static_cast<std::size_t>(k) * C);
              const std::uint64_t t0 = ctx.obs().trace.enabled() ? obs::now_ns() : 0;
              for (const RectTrees::Kid& kid : *kids) {
                send_coll(ctx, g, seq, phase,
                          *g.rank_of(g.node_group(kid.node).master_task),
                          buf + rc.off + static_cast<std::size_t>(k) * C, clen, pending, k,
                          kid.hints);
              }
              ctx.obs().trace.record_span(obs::TraceEv::RectChunkRelay, t0,
                                          static_cast<std::uint32_t>(clen));
              st.obs.pvars.add(obs::Pvar::CollRectChunks);
              inflight += kids->size();
              if (inflight > st.rect_inflight_peak) {
                st.obs.pvars.add(obs::Pvar::CollRectInflightPeak,
                                 inflight - st.rect_inflight_peak);
                st.rect_inflight_peak = inflight;
              }
              rc.fwd_next = k + 1;
              progressed = true;
            }
          }
          // 4. A color is done once its slice has fully landed and every
          // child has confirmed the whole relay (so no deposit is leaked
          // into the next operation's matching space).
          bool finished = rc.parent_rank < 0 || rc.recv_next == rc.nchunks;
          if (kids != nullptr) {
            if (rc.fwd_next != rc.nchunks) finished = false;
            for (std::uint32_t a : rc.acked) {
              if (a != rc.nchunks) finished = false;
            }
          }
          if (finished) {
            rc.done = true;
            --remaining;
            progressed = true;
          }
        }
        if (progressed) {
          spin.reset();
        } else {
          spin.spin();
        }
      }
      drain_sends(ctx, pending);  // rendezvous-sized chunks pull from our buffer
    }
    li.group->master_slot.publish(buffer);
  }
  local_barrier(ctx, li);

  if (!li.is_master && my_task != root_task) {
    const void* mbuf = li.group->master_slot.ptr.load(std::memory_order_acquire);
    std::memcpy(buffer, peer_read(ctx, li.group->master_task, mbuf, bytes), bytes);
  }
  local_barrier(ctx, li);
}

void reduce_scatter(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
                    std::size_t bytes_per_rank, hw::CombineOp op, hw::CombineType type) {
  // Full-vector reduce (collective network when optimized) then keep my
  // block — the BG/Q collective network has no native scatter phase, so
  // pamid's reduce_scatter is exactly reduce + local selection.
  const std::size_t me = *g.rank_of(ctx.client().task());
  core::Buf full = state_of(ctx.client()).acquire(bytes_per_rank * g.size());
  allreduce(ctx, g, sendbuf, full.data(), full.size(), op, type);
  std::memcpy(recvbuf, full.data() + me * bytes_per_rank, bytes_per_rank);
}

void scatter(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf, void* recvbuf,
             std::size_t bytes_per_rank) {
  const std::size_t n = g.size();
  const std::size_t me = *g.rank_of(ctx.client().task());
  const std::uint64_t seq =
      enter_software(ctx.client(), g, bytes_per_rank, me == root_rank ? 0 : 1);
  if (me == root_rank) {
    const auto* send = static_cast<const std::byte*>(sendbuf);
    std::memcpy(recvbuf, send + me * bytes_per_rank, bytes_per_rank);
    std::atomic<int> pending{0};
    for (std::size_t r = 0; r < n; ++r) {
      if (r == root_rank) continue;
      send_coll(ctx, g, seq, 3, r, send + r * bytes_per_rank, bytes_per_rank, pending);
    }
    drain_sends(ctx, pending);
  } else {
    core::Buf data = wait_coll(ctx, g, seq, 3, root_rank);
    assert(data.size() == bytes_per_rank);
    std::memcpy(recvbuf, data.data(), bytes_per_rank);
  }
}

}  // namespace pamix::pami::coll

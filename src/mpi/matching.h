// MPI matching engine — posted-receive and unexpected-message queues.
//
// The paper's design decision (§IV-A) keeps the receive queue serial under
// one low-overhead L2-atomic mutex because wildcard-correct parallel
// matching is complex.  That single lock is exactly what flattens the
// multi-context message-rate curve, so this engine shards it: matching
// state is split over per-(comm, src) shards whose hash is aligned with
// the context hash of §V.B — (src + comm) mod N — so every arrival-side
// shard is only ever touched from the one context that receives that
// peer's traffic, and contexts stop funnelling through a global mutex.
//
// Within a shard, exact receives and unexpected messages live in O(1)
// hashed bins keyed by (comm, src, tag) plus an intrusive post/arrival
// -order list; nodes come from a per-shard freelist so the steady-state
// match path performs no allocations (mpi.match.pool_hits/misses count
// it).  Wildcards keep the paper's "serialized but cheap" discipline as a
// *fallback*: (src, ANY_TAG) receives ride a per-shard ordered list, and
// ANY_SOURCE receives a single global ordered list that arrivals consult
// only while its outstanding count is nonzero — the bin fast path
// re-enables itself the moment the last wildcard is matched.
// PAMIX_MPI_MATCH=list restores the old single-queue behaviour (one
// shard, pure linear scans) so benches can A/B both in one process.
//
// Ordering: each (communicator, source, destination) pair carries a
// sequence number; arrivals that overtake (possible when Isend handoff
// work items drain out of order under commthread contention) are parked
// until their predecessors arrive, so matching order is exactly MPI's
// non-overtaking order.  Sequence state lives in flat open-addressed
// per-peer tables, one per shard, not std::maps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/context.h"
#include "core/geometry.h"
#include "core/types.h"
#include "hw/l2_atomics.h"
#include "mpi/mpi.h"
#include "obs/pvar.h"

namespace pamix::mpi {

/// Wire envelope carried as the PAMI header of every MPI message.
/// `ep` / `src_ep` are the destination / source endpoint indices for
/// endpoint-routed traffic (-1 on the hashed path): arrivals with a valid
/// `ep` route straight to that endpoint's lock-free matching shard, and
/// the pair widens the per-peer sequence channel so every
/// (comm, src, src_ep, dst_ep) stream is independently ordered.
struct Envelope {
  std::int32_t comm = 0;
  std::int32_t src_rank = 0;
  std::int32_t tag = 0;
  std::uint32_t seq = 0;
  std::int16_t ep = -1;
  std::int16_t src_ep = -1;
};

/// MPI_Request state.
struct RequestImpl {
  enum class Kind { Send, Recv };
  Kind kind = Kind::Send;
  std::atomic<int> complete{0};
  Status status;
  // Recv-side user buffer.
  void* buffer = nullptr;
  std::size_t capacity = 0;
  // Hashed context this request's completing event lands on (-1 when the
  // channel is unknown, e.g. ANY_SOURCE). With commthreads active, wait()
  // steals progress on exactly this context (paper §V) and leaves the
  // rest to the background pool.
  int steal_ctx = -1;
  // Pool bookkeeping (owned by RequestPool, not reset between uses):
  // intrusive link for the lock-free reclaim stack and the shard the
  // request was acquired from, so a cross-thread release lands home.
  RequestImpl* pool_next = nullptr;
  std::uint32_t pool_shard = 0;

  void reset() {
    complete.store(0, std::memory_order_relaxed);
    status = Status{};
    buffer = nullptr;
    capacity = 0;
    steal_ctx = -1;
  }
  bool done() const { return complete.load(std::memory_order_acquire) != 0; }
  void finish() { complete.store(1, std::memory_order_release); }
};

/// Thread-sharded request allocator (paper: "thread private pools to
/// minimize locking overheads"). Acquire hashes the calling thread to a
/// shard and pops its mutex-guarded freelist; release pushes onto the
/// *home* shard's lock-free Treiber reclaim stack (a CAS retried under a
/// hw::Waiter), so a request completed on a commthread or a sibling
/// endpoint thread recycles back without taking the acquirer's lock — the
/// same owner/reclaim split core/buffer_pool.h uses. Releases from a
/// thread hashing to a different shard than the acquirer count the
/// req.cross_thread_releases pvar, making endpoint-mode churn observable.
/// The shards live in shared state co-owned by every outstanding request's
/// deleter, so a Request parked in a matcher queue may safely outlive the
/// pool object.
class RequestPool {
 public:
  explicit RequestPool(obs::PvarSet* pvars = nullptr) : state_(std::make_shared<State>()) {
    state_->pvars = pvars;
  }
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  Request acquire(RequestImpl::Kind kind);
  std::size_t outstanding() const { return state_->live.load(std::memory_order_relaxed); }

 private:
  static constexpr int kShards = 16;
  struct Shard {
    hw::L2AtomicMutex mu;
    std::vector<RequestImpl*> free;
    /// Lock-free reclaim stack (push-only from releasers; acquire steals
    /// the whole chain with one exchange, so there is no ABA window).
    std::atomic<RequestImpl*> reclaim{nullptr};
  };
  struct State {
    ~State() {
      for (Shard& s : shards) {
        for (RequestImpl* p : s.free) delete p;
        RequestImpl* r = s.reclaim.load(std::memory_order_relaxed);
        while (r != nullptr) {
          RequestImpl* next = r->pool_next;
          delete r;
          r = next;
        }
      }
    }
    Shard shards[kShards];
    std::atomic<std::size_t> live{0};
    obs::PvarSet* pvars = nullptr;
  };
  std::shared_ptr<State> state_;
};

/// Per-task communicator handle: shared geometry + task-local bookkeeping.
struct CommImpl {
  std::shared_ptr<pami::Geometry> geometry;
  int my_rank = 0;
  int split_counter = 0;  // deterministic child naming (task-local)

  int id() const { return geometry->id(); }
  int size() const { return static_cast<int>(geometry->size()); }
};

class Matcher {
 public:
  /// Matching structure. `Bins` is the sharded hashed fast path; `List`
  /// is the paper's single serialized ordered queue (one shard, linear
  /// scans), kept runtime-selectable via PAMIX_MPI_MATCH=list|bins so
  /// benches can A/B both paths in-process.
  enum class Mode { List, Bins };

  /// `context_hint` is the owning client's context count. The shard count
  /// is the smallest multiple of it that is >= kMinShards, so the
  /// (src + comm) shard hash refines the (src + comm) context hash and a
  /// shard's arrival side is only touched from one context.
  explicit Matcher(Library library, int context_hint = 1, obs::PvarSet* pvars = nullptr);
  Matcher(Library library, Mode mode, int context_hint = 1, obs::PvarSet* pvars = nullptr);
  ~Matcher();
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  /// An incoming message, abstracted over eager-inline / eager-streaming /
  /// rendezvous and over live vs parked delivery.
  struct Arrival {
    enum class Kind { Inline, Streaming, Rdzv };
    Kind kind = Kind::Inline;
    Envelope env;
    pami::Endpoint origin;
    std::size_t total = 0;
    // Inline: payload bytes (owned once parked/unexpected).
    const std::byte* pipe = nullptr;
    std::size_t pipe_bytes = 0;
    std::vector<std::byte> owned;
    // Streaming: live descriptor to fill (in-order arrivals only)...
    pami::RecvDescriptor* live_recv = nullptr;
    // ...or temp-buffer state for parked arrivals.
    struct TempState {
      std::vector<std::byte> data;
      bool arrived = false;
      Request claimer;
      void* claimer_buf = nullptr;
      std::size_t claimer_cap = 0;
    };
    std::shared_ptr<TempState> temp;
    // Rendezvous: deferred-pull handle on the owning context.
    pami::Context* ctx = nullptr;
    std::uint64_t defer_handle = 0;
  };

  /// Dispatch-side entry: called from the PAMI dispatch handler on the
  /// receiving context's thread. Handles sequencing, matching, parking.
  /// Arrivals with env.ep in [0, endpoint_count()) route to that
  /// endpoint's lock-free shard; out-of-range endpoint indices degrade to
  /// the hashed path (counted as ep.shard_collisions).
  void on_arrival(Arrival&& a);

  /// Post a receive. Matches the unexpected queue first (in arrival
  /// order), else enqueues on the posted queue (in post order).
  void post_recv(Request req, int comm, int src_rank, int tag);

  /// MPI_Iprobe: report (without consuming) the first unexpected message
  /// matching (comm, src, tag). Wildcards allowed. Sees hashed-path
  /// traffic only: endpoint shards are owner-private, so messages routed
  /// to a bound endpoint are invisible here (probe via that endpoint's
  /// own receive ops instead).
  bool probe(int comm, int src_rank, int tag, Status* status);

  std::uint32_t next_send_seq(int comm, int dest_rank);

  // --- Endpoint shards (scalable-endpoints mode) ----------------------------
  // One extra matching shard per endpoint, owned exclusively by the bound
  // thread: no mutex, no atomics on the exact-match path, sequence/epoch
  // counters shard-local. The only shared structure an endpoint ever
  // consults is the global ANY_SOURCE list, and only when `fallback` is on
  // and its count gate is nonzero.

  /// Allocate `count` endpoint shards (plus per-endpoint send-sequence
  /// tables). Bins mode only — under PAMIX_MPI_MATCH=list endpoints are
  /// disabled and this is a no-op. Call once, before any traffic.
  void enable_endpoints(int count, bool fallback);
  int endpoint_count() const { return ep_count_; }
  bool endpoint_fallback() const { return ep_fallback_; }

  /// Point one endpoint shard's counters at its own obs domain so sibling
  /// endpoints never share a counter cache line. Call before traffic.
  void bind_endpoint_pvars(int ep, obs::PvarSet* pvars);

  /// Owner-thread receive post on an endpoint shard. No wildcard source:
  /// ANY_SOURCE receives go through post_recv (the global list) and reach
  /// this shard's backlog via scan_endpoint_for_global.
  void post_recv_ep(int ep, Request req, int comm, int src_rank, int tag);

  /// Owner-thread send sequencing: one independent stream per
  /// (comm, dest_rank, dest_ep) in the endpoint's private table.
  std::uint32_t next_send_seq_ep(int ep, int comm, int dest_rank, int dest_ep);

  /// Owner-thread sweep: marry outstanding global ANY_SOURCE receives to
  /// this endpoint shard's unexpected backlog (oldest wildcard first, then
  /// arrival order). Posted to bound contexts after a wildcard publishes so
  /// endpoint-routed messages can still satisfy MPI_ANY_SOURCE.
  void scan_endpoint_for_global(int ep);

  /// Pre-size every shard freelist (hashed, endpoint, global-wild) to
  /// `nodes_per_shard` nodes without touching the pool_hits/misses
  /// counters — init-time warm-up so steady state reports zero misses.
  void prewarm(int nodes_per_shard);

  Mode mode() const { return mode_; }
  int shard_count() const { return shard_count_; }

  /// ANY_SOURCE receives currently outstanding. While zero, arrivals never
  /// touch the serialized wildcard list — the bin fast path is "re-enabled".
  std::uint32_t outstanding_any_source() const {
    return gw_.count.load(std::memory_order_relaxed);
  }

  // Totals are kept per shard (owner/lock-holder written, relaxed) so
  // endpoint fast paths never tick a shared cache line; accessors sum.
  std::uint64_t unexpected_count() const;
  std::uint64_t posted_matched_count() const;
  std::uint64_t parked_count() const;

 private:
  struct MatchNode;  // defined in matching.cpp

  /// Intrusive doubly-linked list head. A node carries two independent
  /// link pairs: `bin` links chain it into a hash bin (or wildcard list),
  /// `ord` links into the shard-wide post/arrival-order list, so one node
  /// sits in both without allocation.
  struct NodeList {
    MatchNode* head = nullptr;
    MatchNode* tail = nullptr;
  };

  /// Flat open-addressed per-peer table keyed by pack(comm, rank) —
  /// replaces the std::maps that backed expected/send sequence numbers.
  /// Linear probing over a power-of-two slot array; grows at 70% load
  /// (growth is warm-up, not steady state). Entries are never erased:
  /// peers a task has spoken to stay resident, exactly like the maps did.
  class PeerTable {
   public:
    struct Entry {
      std::uint64_t key = kEmptyKey;
      std::uint32_t seq = 0;        // expected (recv side) / next (send side)
      std::uint32_t unexp = 0;      // unexpected messages queued from this peer
      MatchNode* parked = nullptr;  // overtaken arrivals, seq-sorted via ord_next
    };
    static constexpr std::uint64_t kEmptyKey = ~0ull;

    Entry& find_or_insert(std::uint64_t key) {
      if (slots_.empty()) {
        grow(64);
      } else if ((used_ + 1) * 10 >= slots_.size() * 7) {
        grow(slots_.size() * 2);
      }
      for (std::size_t i = index(key);; i = (i + 1) & (slots_.size() - 1)) {
        if (slots_[i].key == key) return slots_[i];
        if (slots_[i].key == kEmptyKey) {
          slots_[i].key = key;
          ++used_;
          return slots_[i];
        }
      }
    }

    Entry* find(std::uint64_t key) {
      if (slots_.empty()) return nullptr;
      for (std::size_t i = index(key);; i = (i + 1) & (slots_.size() - 1)) {
        if (slots_[i].key == key) return &slots_[i];
        if (slots_[i].key == kEmptyKey) return nullptr;
      }
    }

    template <typename F>
    void for_each(F&& f) {
      for (Entry& e : slots_) {
        if (e.key != kEmptyKey) f(e);
      }
    }

   private:
    static std::uint64_t mix(std::uint64_t x) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      x *= 0xc4ceb9fe1a85ec53ull;
      x ^= x >> 33;
      return x;
    }
    std::size_t index(std::uint64_t key) const { return mix(key) & (slots_.size() - 1); }
    void grow(std::size_t n) {
      std::vector<Entry> old = std::move(slots_);
      slots_.assign(n, Entry{});
      used_ = 0;
      for (Entry& e : old) {
        if (e.key != kEmptyKey) find_or_insert(e.key) = e;
      }
    }
    std::vector<Entry> slots_;
    std::size_t used_ = 0;
  };

  static constexpr int kBins = 64;      // hash bins per shard (power of two)
  static constexpr int kMinShards = 16;

  /// One matching shard: everything about the (comm, src) peers that hash
  /// here, serialized by its own cheap mutex — except endpoint shards
  /// (`ep_owned`), which belong to exactly one bound thread and are never
  /// locked: their epoch/stamp order is a plain shard-local counter and
  /// their telemetry lands in the endpoint's own pvar domain.
  struct alignas(64) Shard {
    hw::L2AtomicMutex mu;
    NodeList posted_bins[kBins];  // exact (comm, src, tag) receives
    NodeList posted_all;          // all posted nodes, post order (ord links)
    NodeList wild_local;          // (src, ANY_TAG) receives, post order (bin links)
    std::uint32_t wild_count = 0;
    NodeList unexp_bins[kBins];   // unexpected messages by exact key
    NodeList unexp_all;           // all unexpected nodes, arrival order (ord links)
    PeerTable peers;              // expected seq / parked chain / unexp count
    MatchNode* free_head = nullptr;  // node freelist (chained via bin_next)
    bool ep_owned = false;           // owner-thread shard: no locking, local order
    std::uint64_t local_epoch = 1;   // post order (ep shards; owner-only)
    std::uint64_t local_stamp = 1;   // arrival order (ep shards; owner-only)
    obs::PvarSet* pvars = nullptr;   // ep domain override; null -> matcher's
    // Per-shard totals: single-writer relaxed atomics (readable while the
    // owner runs), summed by the Matcher accessors.
    std::atomic<std::uint64_t> n_unexp{0};
    std::atomic<std::uint64_t> n_matched{0};
    std::atomic<std::uint64_t> n_parked{0};
  };

  struct alignas(64) SendShard {
    hw::L2AtomicMutex mu;
    PeerTable peers;  // only Entry::seq is used: the next send sequence
  };

  /// ANY_SOURCE receives — the paper's serialized-but-cheap ordered list,
  /// shared by all shards. `count` is the gate: arrivals skip this list
  /// entirely (no lock, one relaxed load) while it is zero.
  struct GlobalWild {
    hw::L2AtomicMutex mu;
    NodeList list;  // post order (ord links)
    MatchNode* free_head = nullptr;
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> n_matched{0};  // wildcard claims (under mu)
  };

  std::size_t shard_index(int comm, int rank) const;
  Shard& shard_of(int comm, int rank);
  static std::size_t bin_of(int comm, int src, int tag);
  static std::uint64_t peer_key(int comm, int rank);
  /// Sequence-channel key: peer_key widened with the (src_ep, dst_ep) pair
  /// when the sender stamped endpoint indices, so every endpoint-to-
  /// endpoint stream is independently ordered.
  static std::uint64_t chan_key(int comm, int rank, int src_ep, int dst_ep);
  static bool node_matches(const MatchNode& p, const Envelope& env);

  void on_arrival_ep(Arrival&& a);
  void sequence_and_deliver(Shard& sh, PeerTable::Entry& e, Arrival&& a);
  void park(Shard& sh, PeerTable::Entry& e, Arrival&& a);
  void deliver(Shard& sh, PeerTable::Entry& e, Arrival&& a);
  /// Endpoint-shard global-wildcard arbitration: claim matching wildcards
  /// for the shard's oldest unexpected messages first, then for the live
  /// arrival. Returns true when the arrival was consumed.
  bool claim_global_wild(Shard& sh, Arrival& a);
  void bind_posted(const Request& req, Arrival&& a);
  void store_unexpected(Shard& sh, PeerTable::Entry& e, Arrival&& a);
  void bind_unexpected(Shard& sh, const Request& req, MatchNode* u);
  MatchNode* find_unexpected(Shard& sh, int comm, int src, int tag);
  void take_unexpected(Shard& sh, MatchNode* u);
  bool wildcard_blocked(Shard& sh, const PeerTable::Entry& e, const MatchNode& w,
                        const Envelope& env);

  MatchNode* alloc_node(Shard& sh);
  MatchNode* alloc_node(MatchNode*& free_head, obs::PvarSet* pv);
  void recycle_node(MatchNode*& free_head, MatchNode* n);
  /// Shard-aware counting: endpoint shards tick their own pvar domain so
  /// sibling endpoints never write the same counter line.
  obs::PvarSet* shard_pvars(const Shard& sh) const {
    return sh.pvars != nullptr ? sh.pvars : pvars_;
  }
  void count_sh(const Shard& sh, obs::Pvar p, std::uint64_t n = 1) {
    obs::PvarSet* pv = shard_pvars(sh);
    if (pv != nullptr) pv->add(p, n);
  }
  void count(obs::Pvar p, std::uint64_t n = 1) {
    if (pvars_ != nullptr) pvars_->add(p, n);
  }

  static void push_ord(NodeList& l, MatchNode* n);
  static void unlink_ord(NodeList& l, MatchNode* n);
  static void push_bin(NodeList& l, MatchNode* n);
  static void unlink_bin(NodeList& l, MatchNode* n);

  static void complete_recv(const Request& req, const Envelope& env, std::size_t bytes);

  Library library_;
  Mode mode_;
  int shard_count_ = 1;
  obs::PvarSet* pvars_ = nullptr;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<SendShard[]> send_shards_;
  GlobalWild gw_;
  // Endpoint mode: one owner-private shard + send-sequence table per
  // endpoint, allocated once by enable_endpoints.
  int ep_count_ = 0;
  bool ep_fallback_ = true;
  int prewarm_nodes_ = 0;
  std::unique_ptr<Shard[]> ep_shards_;
  std::unique_ptr<PeerTable[]> ep_send_;
  // Post order (posted receives) and arrival order (unexpected messages)
  // are global for the hashed shards so cross-list candidates compare
  // correctly; the fetch_add happens under the relevant structure's lock.
  // Endpoint shards use their own local_epoch/local_stamp instead — an
  // endpoint never compares order against another shard's nodes.
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> stamp_{1};
};

}  // namespace pamix::mpi

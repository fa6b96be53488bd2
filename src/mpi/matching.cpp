#include "mpi/matching.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <thread>

#include "core/env.h"

namespace pamix::mpi {

// ------------------------------------------------------------ RequestPool --

namespace {

/// Pooled allocator for the shared_ptr control block, the one heap
/// allocation left on the request fast path. Slots recycle through a
/// thread-local cache: the owner-thread acquire/release cycle touches no
/// atomics at all, and a cross-thread release just migrates the slot to
/// the releasing thread's cache (slots are fungible raw memory). The
/// cache is capped so a strictly asymmetric producer/consumer pattern
/// degrades to plain heap traffic instead of hoarding.
///
/// Deliberately not tied to RequestPool::State: libstdc++ destroys the
/// deleter (which co-owns State) *before* it deallocates the control
/// block, so a State-owned slot pool would be used after State could
/// already be dead.
constexpr std::size_t kCtrlSlotBytes = 64;
constexpr std::size_t kCtrlCacheCap = 4096;

struct CtrlCache {
  std::vector<void*> slots;
  ~CtrlCache() {
    for (void* p : slots) ::operator delete(p);
  }
};

inline std::vector<void*>& ctrl_cache() {
  thread_local CtrlCache cache;
  return cache.slots;
}

template <class T>
struct CtrlAlloc {
  using value_type = T;
  CtrlAlloc() = default;
  template <class U>
  CtrlAlloc(const CtrlAlloc<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1 && sizeof(T) <= kCtrlSlotBytes) {
      std::vector<void*>& c = ctrl_cache();
      if (!c.empty()) {
        void* p = c.back();
        c.pop_back();
        return static_cast<T*>(p);
      }
      return static_cast<T*>(::operator new(kCtrlSlotBytes));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (n == 1 && sizeof(T) <= kCtrlSlotBytes) {
      std::vector<void*>& c = ctrl_cache();
      if (c.size() < kCtrlCacheCap) {
        c.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }
  friend bool operator==(const CtrlAlloc&, const CtrlAlloc&) { return true; }
  friend bool operator!=(const CtrlAlloc&, const CtrlAlloc&) { return false; }
};

}  // namespace

Request RequestPool::acquire(RequestImpl::Kind kind) {
  const std::size_t shard_idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  Shard& shard = state_->shards[shard_idx];
  RequestImpl* impl = nullptr;
  {
    std::lock_guard<hw::L2AtomicMutex> g(shard.mu);
    if (!shard.free.empty()) {
      impl = shard.free.back();
      shard.free.pop_back();
    }
  }
  if (impl == nullptr) {
    // Freelist dry: steal the whole reclaim stack with one exchange and
    // keep the surplus (pop-all, so there is no ABA hazard to defend).
    RequestImpl* chain = shard.reclaim.exchange(nullptr, std::memory_order_acquire);
    if (chain != nullptr) {
      impl = chain;
      chain = chain->pool_next;
      if (chain != nullptr) {
        std::lock_guard<hw::L2AtomicMutex> g(shard.mu);
        while (chain != nullptr) {
          shard.free.push_back(chain);
          chain = chain->pool_next;
        }
      }
    }
  }
  if (impl == nullptr) impl = new RequestImpl();
  impl->reset();
  impl->kind = kind;
  impl->pool_shard = static_cast<std::uint32_t>(shard_idx);
  state_->live.fetch_add(1, std::memory_order_relaxed);
  // The deleter co-owns the shard state: a request parked in a matcher
  // queue can be released after the pool object itself is gone. Release
  // pushes onto the *home* shard's lock-free reclaim stack — a CAS loop
  // that takes a hw::Waiter pause between attempts — so a commthread or
  // sibling endpoint thread completing a request never takes the
  // acquirer's lock.
  return Request(
      impl,
      [st = state_](RequestImpl* p) {
    st->live.fetch_sub(1, std::memory_order_relaxed);
    if (st->pvars != nullptr) {
      const std::size_t here =
          std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
      if (here != p->pool_shard) st->pvars->add(obs::Pvar::ReqCrossThreadReleases);
    }
    Shard& sh = st->shards[p->pool_shard];
    RequestImpl* head = sh.reclaim.load(std::memory_order_relaxed);
    hw::Waiter waiter;
    for (;;) {
      p->pool_next = head;
      if (sh.reclaim.compare_exchange_weak(head, p, std::memory_order_release,
                                           std::memory_order_relaxed)) {
        break;
      }
      waiter.pause();
    }
      },
      CtrlAlloc<RequestImpl>());
}

// -------------------------------------------------------------- MatchNode --

/// One pooled queue entry: a posted receive, an unexpected message, or a
/// parked (overtaken) arrival. Two independent intrusive link pairs let a
/// node sit in a hash bin (or wildcard list) and the shard-wide order list
/// at once; the freelist reuses bin_next. The payload vector keeps its
/// capacity across recycles, so a shard that has warmed up stores
/// unexpected inline payloads without touching the allocator.
struct Matcher::MatchNode {
  MatchNode* bin_next = nullptr;
  MatchNode* bin_prev = nullptr;
  MatchNode* ord_next = nullptr;
  MatchNode* ord_prev = nullptr;
  std::uint64_t epoch = 0;  // post epoch (posted) / arrival stamp (unexpected)
  std::uint64_t gen = 0;    // bumped on recycle; validates two-phase wildcard claims
  std::uint64_t pkey = 0;   // sequence-channel key of the peer entry (unexpected)
  bool in_list = false;     // global wildcard node still queued
  std::int32_t comm = 0;
  std::int32_t src = 0;  // kAnySource allowed (posted)
  std::int32_t tag = 0;  // kAnyTag allowed (posted)
  Request req;           // posted receive
  // Unexpected / parked payload.
  Arrival::Kind kind = Arrival::Kind::Inline;
  Envelope env;
  pami::Endpoint origin;
  std::size_t total = 0;
  std::vector<std::byte> data;
  std::shared_ptr<Arrival::TempState> temp;
  pami::Context* ctx = nullptr;
  std::uint64_t defer_handle = 0;
};

// ---------------------------------------------------------------- helpers --

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t Matcher::peer_key(int comm, int rank) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm)) << 32) |
         static_cast<std::uint32_t>(rank);
}

std::uint64_t Matcher::chan_key(int comm, int rank, int src_ep, int dst_ep) {
  // Fold the endpoint pair into bits 48..63 (communicator ids are small,
  // so those bits of peer_key are dead). -1/-1 — the hashed path — leaves
  // the legacy key untouched, so pre-endpoint streams stay continuous.
  std::uint64_t k = peer_key(comm, rank);
  if (src_ep >= 0 || dst_ep >= 0) {
    k ^= (static_cast<std::uint64_t>(static_cast<std::uint8_t>(src_ep + 1)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(dst_ep + 1)) << 56);
  }
  return k;
}

std::size_t Matcher::bin_of(int comm, int src, int tag) {
  const std::uint64_t h =
      mix64(peer_key(comm, src) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) *
             0x9e3779b97f4a7c15ull));
  return static_cast<std::size_t>(h & (kBins - 1));
}

bool Matcher::node_matches(const MatchNode& p, const Envelope& env) {
  return p.comm == env.comm && (p.src == kAnySource || p.src == env.src_rank) &&
         (p.tag == kAnyTag || p.tag == env.tag);
}

std::size_t Matcher::shard_index(int comm, int rank) const {
  return (static_cast<std::uint32_t>(rank) + static_cast<std::uint32_t>(comm)) %
         static_cast<std::uint32_t>(shard_count_);
}

Matcher::Shard& Matcher::shard_of(int comm, int rank) {
  return shards_[shard_index(comm, rank)];
}

void Matcher::push_ord(NodeList& l, MatchNode* n) {
  n->ord_next = nullptr;
  n->ord_prev = l.tail;
  if (l.tail != nullptr) {
    l.tail->ord_next = n;
  } else {
    l.head = n;
  }
  l.tail = n;
}

void Matcher::unlink_ord(NodeList& l, MatchNode* n) {
  if (n->ord_prev != nullptr) {
    n->ord_prev->ord_next = n->ord_next;
  } else {
    l.head = n->ord_next;
  }
  if (n->ord_next != nullptr) {
    n->ord_next->ord_prev = n->ord_prev;
  } else {
    l.tail = n->ord_prev;
  }
  n->ord_next = n->ord_prev = nullptr;
}

void Matcher::push_bin(NodeList& l, MatchNode* n) {
  n->bin_next = nullptr;
  n->bin_prev = l.tail;
  if (l.tail != nullptr) {
    l.tail->bin_next = n;
  } else {
    l.head = n;
  }
  l.tail = n;
}

void Matcher::unlink_bin(NodeList& l, MatchNode* n) {
  if (n->bin_prev != nullptr) {
    n->bin_prev->bin_next = n->bin_next;
  } else {
    l.head = n->bin_next;
  }
  if (n->bin_next != nullptr) {
    n->bin_next->bin_prev = n->bin_prev;
  } else {
    l.tail = n->bin_prev;
  }
  n->bin_next = n->bin_prev = nullptr;
}

Matcher::MatchNode* Matcher::alloc_node(MatchNode*& free_head, obs::PvarSet* pv) {
  MatchNode* n = free_head;
  if (n != nullptr) {
    free_head = n->bin_next;
    if (pv != nullptr) pv->add(obs::Pvar::MpiMatchPoolHits);
  } else {
    n = new MatchNode();
    if (pv != nullptr) pv->add(obs::Pvar::MpiMatchPoolMisses);
  }
  n->bin_next = n->bin_prev = nullptr;
  n->ord_next = n->ord_prev = nullptr;
  n->in_list = false;
  return n;
}

Matcher::MatchNode* Matcher::alloc_node(Shard& sh) {
  return alloc_node(sh.free_head, shard_pvars(sh));
}

void Matcher::recycle_node(MatchNode*& free_head, MatchNode* n) {
  ++n->gen;
  n->req.reset();
  n->temp.reset();
  n->data.clear();  // keeps capacity for the next unexpected payload
  n->ctx = nullptr;
  n->defer_handle = 0;
  n->in_list = false;
  n->bin_next = free_head;
  free_head = n;
}

// ---------------------------------------------------------------- Matcher --

Matcher::Matcher(Library library, int context_hint, obs::PvarSet* pvars)
    : Matcher(library,
              core::env_choice_or("PAMIX_MPI_MATCH", 1, {"list", "bins"}) == 0
                  ? Mode::List
                  : Mode::Bins,
              context_hint, pvars) {}

Matcher::Matcher(Library library, Mode mode, int context_hint, obs::PvarSet* pvars)
    : library_(library), mode_(mode), pvars_(pvars) {
  if (mode_ == Mode::List) {
    shard_count_ = 1;
  } else {
    const int n = std::max(1, context_hint);
    int s = n;
    while (s < kMinShards) s += n;
    shard_count_ = s;
  }
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(shard_count_));
  send_shards_ = std::make_unique<SendShard[]>(static_cast<std::size_t>(shard_count_));
  // Warm every freelist to the expected steady-state posted depth so the
  // first message through each shard is not an allocator miss (the old
  // behaviour is PAMIX_MPI_PREWARM=0).
  prewarm(core::env_int_or("PAMIX_MPI_PREWARM", 8, 0, 1 << 20));
}

void Matcher::prewarm(int nodes_per_shard) {
  prewarm_nodes_ = nodes_per_shard;
  const auto warm = [nodes_per_shard](MatchNode*& head) {
    for (int i = 0; i < nodes_per_shard; ++i) {
      MatchNode* n = new MatchNode();
      n->bin_next = head;
      head = n;
    }
  };
  for (int i = 0; i < shard_count_; ++i) warm(shards_[i].free_head);
  for (int i = 0; i < ep_count_; ++i) warm(ep_shards_[i].free_head);
  warm(gw_.free_head);
}

void Matcher::enable_endpoints(int count, bool fallback) {
  assert(ep_count_ == 0 && "enable_endpoints is one-shot");
  if (mode_ == Mode::List || count <= 0) return;
  ep_count_ = count;
  ep_fallback_ = fallback;
  ep_shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(count));
  ep_send_ = std::make_unique<PeerTable[]>(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Shard& sh = ep_shards_[i];
    sh.ep_owned = true;
    for (int j = 0; j < prewarm_nodes_; ++j) {
      MatchNode* n = new MatchNode();
      n->bin_next = sh.free_head;
      sh.free_head = n;
    }
  }
}

void Matcher::bind_endpoint_pvars(int ep, obs::PvarSet* pvars) {
  assert(ep >= 0 && ep < ep_count_);
  ep_shards_[ep].pvars = pvars;
}

Matcher::~Matcher() {
  const auto free_shard = [](Shard& sh) {
    // wild_local and the bins alias posted_all / unexp_all, so the order
    // lists are the single ownership walk.
    for (MatchNode* n = sh.posted_all.head; n != nullptr;) {
      MatchNode* next = n->ord_next;
      delete n;
      n = next;
    }
    for (MatchNode* n = sh.unexp_all.head; n != nullptr;) {
      MatchNode* next = n->ord_next;
      delete n;
      n = next;
    }
    sh.peers.for_each([](PeerTable::Entry& e) {
      for (MatchNode* n = e.parked; n != nullptr;) {
        MatchNode* next = n->ord_next;
        delete n;
        n = next;
      }
    });
    for (MatchNode* n = sh.free_head; n != nullptr;) {
      MatchNode* next = n->bin_next;
      delete n;
      n = next;
    }
  };
  for (int i = 0; i < shard_count_; ++i) free_shard(shards_[i]);
  for (int i = 0; i < ep_count_; ++i) free_shard(ep_shards_[i]);
  for (MatchNode* n = gw_.list.head; n != nullptr;) {
    MatchNode* next = n->ord_next;
    delete n;
    n = next;
  }
  for (MatchNode* n = gw_.free_head; n != nullptr;) {
    MatchNode* next = n->bin_next;
    delete n;
    n = next;
  }
}

std::uint32_t Matcher::next_send_seq(int comm, int dest_rank) {
  SendShard& ss = send_shards_[shard_index(comm, dest_rank)];
  std::lock_guard<hw::L2AtomicMutex> g(ss.mu);
  return ss.peers.find_or_insert(peer_key(comm, dest_rank)).seq++;
}

std::uint32_t Matcher::next_send_seq_ep(int ep, int comm, int dest_rank, int dest_ep) {
  assert(ep >= 0 && ep < ep_count_);
  // Owner-private table, no lock: one independent stream per
  // (comm, dest_rank, dest_ep) from this endpoint.
  return ep_send_[ep].find_or_insert(chan_key(comm, dest_rank, ep, dest_ep)).seq++;
}

std::uint64_t Matcher::unexpected_count() const {
  std::uint64_t t = 0;
  for (int i = 0; i < shard_count_; ++i)
    t += shards_[i].n_unexp.load(std::memory_order_relaxed);
  for (int i = 0; i < ep_count_; ++i)
    t += ep_shards_[i].n_unexp.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t Matcher::posted_matched_count() const {
  std::uint64_t t = gw_.n_matched.load(std::memory_order_relaxed);
  for (int i = 0; i < shard_count_; ++i)
    t += shards_[i].n_matched.load(std::memory_order_relaxed);
  for (int i = 0; i < ep_count_; ++i)
    t += ep_shards_[i].n_matched.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t Matcher::parked_count() const {
  std::uint64_t t = 0;
  for (int i = 0; i < shard_count_; ++i)
    t += shards_[i].n_parked.load(std::memory_order_relaxed);
  for (int i = 0; i < ep_count_; ++i)
    t += ep_shards_[i].n_parked.load(std::memory_order_relaxed);
  return t;
}

void Matcher::complete_recv(const Request& req, const Envelope& env, std::size_t bytes) {
  req->status.source = env.src_rank;
  req->status.tag = env.tag;
  req->status.bytes = bytes;
  req->finish();
}

void Matcher::on_arrival(Arrival&& a) {
  if (a.env.ep >= 0 && mode_ == Mode::Bins) {
    if (a.env.ep < ep_count_) {
      on_arrival_ep(std::move(a));
      return;
    }
    // Stamped for an endpoint this task never configured (stale or
    // mismatched PAMIX_ENDPOINTS across tasks): degrade to the hashed
    // path. The endpoint-qualified channel key keeps the stream's
    // sequence state consistent wherever its arrivals land.
    count(obs::Pvar::EpShardCollisions);
  }
  Shard& sh = shard_of(a.env.comm, a.env.src_rank);
  std::lock_guard<hw::L2AtomicMutex> g(sh.mu);
  PeerTable::Entry& e = sh.peers.find_or_insert(
      chan_key(a.env.comm, a.env.src_rank, a.env.src_ep, a.env.ep));
  sequence_and_deliver(sh, e, std::move(a));
}

void Matcher::on_arrival_ep(Arrival&& a) {
  // Endpoint fast path: the shard belongs to the one thread advancing the
  // endpoint's context — the thread we are on — so there is nothing to
  // lock and no cache line shared with any other endpoint.
  Shard& sh = ep_shards_[a.env.ep];
  PeerTable::Entry& e = sh.peers.find_or_insert(
      chan_key(a.env.comm, a.env.src_rank, a.env.src_ep, a.env.ep));
  sequence_and_deliver(sh, e, std::move(a));
}

void Matcher::sequence_and_deliver(Shard& sh, PeerTable::Entry& e, Arrival&& a) {
  if (a.env.seq != e.seq) {
    assert(a.env.seq > e.seq && "duplicate sequence number");
    park(sh, e, std::move(a));
    return;
  }
  ++e.seq;
  deliver(sh, e, std::move(a));
  // Drain any parked successors that are now in order. No find_or_insert
  // happens inside deliver, so `e` stays stable across the loop.
  while (e.parked != nullptr && e.parked->env.seq == e.seq) {
    MatchNode* p = e.parked;
    e.parked = p->ord_next;
    p->ord_next = nullptr;
    ++e.seq;
    Arrival pa;
    pa.kind = p->kind;
    pa.env = p->env;
    pa.origin = p->origin;
    pa.total = p->total;
    pa.owned = std::move(p->data);
    pa.temp = std::move(p->temp);
    pa.ctx = p->ctx;
    pa.defer_handle = p->defer_handle;
    recycle_node(sh.free_head, p);
    deliver(sh, e, std::move(pa));
  }
}

void Matcher::park(Shard& sh, PeerTable::Entry& e, Arrival&& a) {
  // Overtaken arrival: park it. Streaming payload must land somewhere
  // now, so it goes to a temp buffer; rendezvous defers (no data moved).
  sh.n_parked.fetch_add(1, std::memory_order_relaxed);
  count_sh(sh, obs::Pvar::MpiMatchParked);
  if (a.kind == Arrival::Kind::Inline && a.pipe != nullptr) {
    a.owned.assign(a.pipe, a.pipe + a.pipe_bytes);
    a.pipe = nullptr;
  } else if (a.kind == Arrival::Kind::Streaming && a.live_recv != nullptr) {
    auto temp = std::make_shared<Arrival::TempState>();
    temp->data.resize(a.total);
    a.live_recv->buffer = temp->data.data();
    a.live_recv->bytes = a.total;
    a.live_recv->on_complete = [sp = &sh, temp] {
      std::lock_guard<hw::L2AtomicMutex> g2(sp->mu);
      temp->arrived = true;
      if (temp->claimer) {
        const std::size_t n = std::min(temp->claimer_cap, temp->data.size());
        std::memcpy(temp->claimer_buf, temp->data.data(), n);
        temp->claimer->finish();
      }
    };
    a.temp = std::move(temp);
    a.live_recv = nullptr;
  } else if (a.kind == Arrival::Kind::Rdzv && a.live_recv != nullptr) {
    a.live_recv->defer = true;
    a.defer_handle = a.live_recv->defer_handle;
    a.live_recv = nullptr;
  }
  MatchNode* n = alloc_node(sh);
  n->kind = a.kind;
  n->env = a.env;
  n->origin = a.origin;
  n->total = a.total;
  n->data = std::move(a.owned);
  n->temp = std::move(a.temp);
  n->ctx = a.ctx;
  n->defer_handle = a.defer_handle;
  // Seq-sorted insert into the peer's parked chain (singly linked; parks
  // are rare and chains short).
  MatchNode** link = &e.parked;
  while (*link != nullptr && (*link)->env.seq < n->env.seq) link = &(*link)->ord_next;
  n->ord_next = *link;
  *link = n;
}

bool Matcher::wildcard_blocked(Shard& sh, const PeerTable::Entry& e, const MatchNode& w,
                               const Envelope& env) {
  // An ANY_SOURCE receive may only bind this arrival if no *older* message
  // from the same (comm, src) that the receive would also match is still
  // unexpected — otherwise the newer arrival would overtake it. (Such a
  // state is transient: it exists only between the receive's publication
  // and its shard scan; the scan will claim the older message.)
  if (w.tag == kAnyTag) return e.unexp > 0;
  const NodeList& bl = sh.unexp_bins[bin_of(env.comm, env.src_rank, w.tag)];
  for (const MatchNode* u = bl.head; u != nullptr; u = u->bin_next) {
    if (u->comm == env.comm && u->src == env.src_rank && u->tag == w.tag) return true;
  }
  return false;
}

void Matcher::deliver(Shard& sh, PeerTable::Entry& e, Arrival&& a) {
  MatchNode* best = nullptr;
  MatchNode* bin_candidate = nullptr;
  std::uint64_t best_epoch = ~0ull;

  if (mode_ == Mode::List) {
    std::uint64_t walked = 0;
    for (MatchNode* n = sh.posted_all.head; n != nullptr; n = n->ord_next) {
      ++walked;
      if (node_matches(*n, a.env)) {
        best = n;
        break;
      }
    }
    count(obs::Pvar::MpiMatchListScans, walked);
  } else {
    // Fast path: the exact (comm, src, tag) bin. FIFO within the bin, so
    // the first key match is the earliest-posted exact receive.
    NodeList& bl = sh.posted_bins[bin_of(a.env.comm, a.env.src_rank, a.env.tag)];
    for (MatchNode* n = bl.head; n != nullptr; n = n->bin_next) {
      if (n->comm == a.env.comm && n->src == a.env.src_rank && n->tag == a.env.tag) {
        best = bin_candidate = n;
        best_epoch = n->epoch;
        break;
      }
    }
    // Wildcard fallback, entered only while wildcards are outstanding.
    // Both wildcard lists are post-ordered, so an earlier-epoch wildcard
    // beats the bin candidate and the walks stop at best_epoch. (On an
    // endpoint shard the epochs are shard-local — still comparable, since
    // both candidates were posted through the same owner thread.)
    if (sh.wild_count > 0) {
      count_sh(sh, obs::Pvar::MpiMatchWildcardFallbacks);
      std::uint64_t walked = 0;
      for (MatchNode* n = sh.wild_local.head; n != nullptr; n = n->bin_next) {
        if (n->epoch >= best_epoch) break;
        ++walked;
        if (node_matches(*n, a.env)) {
          best = n;
          best_epoch = n->epoch;
          break;
        }
      }
      count_sh(sh, obs::Pvar::MpiMatchListScans, walked);
    }
    if (sh.ep_owned) {
      // Endpoint shards use relaxed cross-VCI arbitration: a local posted
      // match always wins; the serialized global ANY_SOURCE list is
      // consulted only when nothing local matched (and fallback is on).
      if (best == nullptr && ep_fallback_ &&
          gw_.count.load(std::memory_order_acquire) > 0) {
        if (claim_global_wild(sh, a)) return;
      }
    } else if (gw_.count.load(std::memory_order_acquire) > 0) {
      count(obs::Pvar::MpiMatchWildcardFallbacks);
      Request wreq;
      bool claimed = false;
      {
        std::lock_guard<hw::L2AtomicMutex> g(gw_.mu);
        std::uint64_t walked = 0;
        for (MatchNode* n = gw_.list.head; n != nullptr; n = n->ord_next) {
          if (n->epoch >= best_epoch) break;
          ++walked;
          if (!node_matches(*n, a.env)) continue;
          if (wildcard_blocked(sh, e, *n, a.env)) continue;
          unlink_ord(gw_.list, n);
          n->in_list = false;
          gw_.count.fetch_sub(1, std::memory_order_acq_rel);
          wreq = std::move(n->req);
          recycle_node(gw_.free_head, n);
          claimed = true;
          break;
        }
        count(obs::Pvar::MpiMatchListScans, walked);
      }
      if (claimed) {
        gw_.n_matched.fetch_add(1, std::memory_order_relaxed);
        bind_posted(wreq, std::move(a));
        return;
      }
    }
  }

  if (best != nullptr) {
    unlink_ord(sh.posted_all, best);
    if (mode_ == Mode::Bins) {
      if (best->tag == kAnyTag) {
        unlink_bin(sh.wild_local, best);
        --sh.wild_count;
      } else {
        unlink_bin(sh.posted_bins[bin_of(best->comm, best->src, best->tag)], best);
        if (best == bin_candidate) count_sh(sh, obs::Pvar::MpiMatchBinHits);
      }
    }
    sh.n_matched.fetch_add(1, std::memory_order_relaxed);
    Request req = std::move(best->req);
    recycle_node(sh.free_head, best);
    bind_posted(req, std::move(a));
    return;
  }
  store_unexpected(sh, e, std::move(a));
}

bool Matcher::claim_global_wild(Shard& sh, Arrival& a) {
  // Called on an endpoint shard with no local posted match. Each pass
  // claims (under the global lock) the oldest outstanding ANY_SOURCE
  // receive that matches the live arrival — but MPI non-overtaking order
  // within this shard still applies: if the claimed wildcard also matches
  // an *older* message in the shard's unexpected backlog, the wildcard
  // takes that message instead and the arrival retries against the next
  // one. Every pass retires one wildcard, so the loop terminates.
  count_sh(sh, obs::Pvar::MpiMatchWildcardFallbacks);
  for (;;) {
    if (gw_.count.load(std::memory_order_acquire) == 0) return false;
    Request wreq;
    MatchNode* backlog = nullptr;
    {
      std::lock_guard<hw::L2AtomicMutex> g(gw_.mu);
      MatchNode* w = nullptr;
      for (MatchNode* n = gw_.list.head; n != nullptr; n = n->ord_next) {
        if (node_matches(*n, a.env)) {
          w = n;
          break;
        }
      }
      if (w == nullptr) return false;
      for (MatchNode* u = sh.unexp_all.head; u != nullptr; u = u->ord_next) {
        if (node_matches(*w, u->env)) {
          backlog = u;
          break;
        }
      }
      unlink_ord(gw_.list, w);
      w->in_list = false;
      gw_.count.fetch_sub(1, std::memory_order_acq_rel);
      wreq = std::move(w->req);
      recycle_node(gw_.free_head, w);
      gw_.n_matched.fetch_add(1, std::memory_order_relaxed);
    }
    if (backlog == nullptr) {
      bind_posted(wreq, std::move(a));
      return true;
    }
    take_unexpected(sh, backlog);
    bind_unexpected(sh, wreq, backlog);
  }
}

void Matcher::bind_posted(const Request& req, Arrival&& a) {
  switch (a.kind) {
    case Arrival::Kind::Inline: {
      const std::byte* src = a.pipe != nullptr ? a.pipe : a.owned.data();
      const std::size_t have = a.pipe != nullptr ? a.pipe_bytes : a.owned.size();
      const std::size_t n = std::min(req->capacity, have);
      if (n > 0) std::memcpy(req->buffer, src, n);
      complete_recv(req, a.env, n);
      return;
    }
    case Arrival::Kind::Streaming: {
      if (a.live_recv != nullptr) {
        // Live: land directly in the user buffer.
        a.live_recv->buffer = req->buffer;
        a.live_recv->bytes = req->capacity;
        const std::size_t n = std::min(req->capacity, a.total);
        a.live_recv->on_complete = [req, env = a.env, n] { complete_recv(req, env, n); };
        return;
      }
      // Parked temp: copy if arrived, else claim.
      if (a.temp->arrived) {
        const std::size_t n = std::min(req->capacity, a.temp->data.size());
        if (n > 0) std::memcpy(req->buffer, a.temp->data.data(), n);
        complete_recv(req, a.env, n);
      } else {
        a.temp->claimer = req;
        a.temp->claimer_buf = req->buffer;
        a.temp->claimer_cap = req->capacity;
        req->status.source = a.env.src_rank;
        req->status.tag = a.env.tag;
        req->status.bytes = std::min(req->capacity, a.total);
      }
      return;
    }
    case Arrival::Kind::Rdzv: {
      const std::size_t n = std::min(req->capacity, a.total);
      if (a.live_recv != nullptr) {
        a.live_recv->buffer = req->buffer;
        a.live_recv->bytes = req->capacity;
        a.live_recv->on_complete = [req, env = a.env, n] { complete_recv(req, env, n); };
        return;
      }
      // Deferred: we are on the owning context's thread (parked drains
      // happen inside that context's dispatch), so complete directly.
      a.ctx->complete_deferred_rdzv(a.defer_handle, req->buffer, req->capacity,
                                    [req, env = a.env, n] { complete_recv(req, env, n); });
      return;
    }
  }
}

void Matcher::store_unexpected(Shard& sh, PeerTable::Entry& e, Arrival&& a) {
  sh.n_unexp.fetch_add(1, std::memory_order_relaxed);
  MatchNode* u = alloc_node(sh);
  u->comm = a.env.comm;
  u->src = a.env.src_rank;
  u->tag = a.env.tag;
  u->kind = a.kind;
  u->env = a.env;
  u->origin = a.origin;
  u->total = a.total;
  u->pkey = e.key;
  u->epoch = sh.ep_owned ? sh.local_stamp++ : stamp_.fetch_add(1, std::memory_order_relaxed);
  switch (a.kind) {
    case Arrival::Kind::Inline:
      if (a.pipe != nullptr) {
        u->data.assign(a.pipe, a.pipe + a.pipe_bytes);
      } else {
        u->data = std::move(a.owned);
      }
      break;
    case Arrival::Kind::Streaming:
      if (a.live_recv != nullptr) {
        auto temp = std::make_shared<Arrival::TempState>();
        temp->data.resize(a.total);
        a.live_recv->buffer = temp->data.data();
        a.live_recv->bytes = a.total;
        a.live_recv->on_complete = [sp = &sh, temp] {
          std::lock_guard<hw::L2AtomicMutex> g2(sp->mu);
          temp->arrived = true;
          if (temp->claimer) {
            const std::size_t n = std::min(temp->claimer_cap, temp->data.size());
            std::memcpy(temp->claimer_buf, temp->data.data(), n);
            temp->claimer->finish();
          }
        };
        u->temp = std::move(temp);
      } else {
        u->temp = std::move(a.temp);
      }
      break;
    case Arrival::Kind::Rdzv:
      if (a.live_recv != nullptr) {
        a.live_recv->defer = true;
        u->defer_handle = a.live_recv->defer_handle;
        u->ctx = a.ctx;
      } else {
        u->defer_handle = a.defer_handle;
        u->ctx = a.ctx;
      }
      break;
  }
  push_ord(sh.unexp_all, u);
  if (mode_ == Mode::Bins) push_bin(sh.unexp_bins[bin_of(u->comm, u->src, u->tag)], u);
  ++e.unexp;
}

Matcher::MatchNode* Matcher::find_unexpected(Shard& sh, int comm, int src, int tag) {
  if (mode_ == Mode::Bins && src != kAnySource && tag != kAnyTag) {
    NodeList& bl = sh.unexp_bins[bin_of(comm, src, tag)];
    for (MatchNode* u = bl.head; u != nullptr; u = u->bin_next) {
      if (u->comm == comm && u->src == src && u->tag == tag) {
        count_sh(sh, obs::Pvar::MpiMatchBinHits);
        return u;
      }
    }
    return nullptr;
  }
  std::uint64_t walked = 0;
  MatchNode* u = sh.unexp_all.head;
  for (; u != nullptr; u = u->ord_next) {
    ++walked;
    if (u->comm == comm && (src == kAnySource || u->src == src) &&
        (tag == kAnyTag || u->tag == tag)) {
      break;
    }
  }
  count_sh(sh, obs::Pvar::MpiMatchListScans, walked);
  return u;
}

void Matcher::take_unexpected(Shard& sh, MatchNode* u) {
  unlink_ord(sh.unexp_all, u);
  if (mode_ == Mode::Bins) unlink_bin(sh.unexp_bins[bin_of(u->comm, u->src, u->tag)], u);
  // pkey, not peer_key: endpoint-qualified streams key their entries by
  // the full channel, and the unexp count must come off the same entry.
  PeerTable::Entry* pe = sh.peers.find(u->pkey);
  assert(pe != nullptr && pe->unexp > 0);
  --pe->unexp;
}

void Matcher::bind_unexpected(Shard& sh, const Request& req, MatchNode* u) {
  switch (u->kind) {
    case Arrival::Kind::Inline: {
      const std::size_t n = std::min(req->capacity, u->data.size());
      if (n > 0) std::memcpy(req->buffer, u->data.data(), n);
      complete_recv(req, u->env, n);
      break;
    }
    case Arrival::Kind::Streaming: {
      if (u->temp->arrived) {
        const std::size_t n = std::min(req->capacity, u->temp->data.size());
        if (n > 0) std::memcpy(req->buffer, u->temp->data.data(), n);
        complete_recv(req, u->env, n);
      } else {
        u->temp->claimer = req;
        u->temp->claimer_buf = req->buffer;
        u->temp->claimer_cap = req->capacity;
        req->status.source = u->env.src_rank;
        req->status.tag = u->env.tag;
        req->status.bytes = std::min(req->capacity, u->total);
      }
      break;
    }
    case Arrival::Kind::Rdzv: {
      const std::size_t n = std::min(req->capacity, u->total);
      // We may be on an application thread: route the pull to the owning
      // context through its lockless work queue.
      pami::Context* ctx = u->ctx;
      const std::uint64_t handle = u->defer_handle;
      void* buf = req->buffer;
      const std::size_t cap = req->capacity;
      Request r = req;
      Envelope env = u->env;
      ctx->post([ctx, handle, buf, cap, r, env, n] {
        ctx->complete_deferred_rdzv(handle, buf, cap,
                                    [r, env, n] { complete_recv(r, env, n); });
      });
      break;
    }
  }
  recycle_node(sh.free_head, u);
}

bool Matcher::probe(int comm, int src_rank, int tag, Status* status) {
  const auto fill = [status](const MatchNode& u) {
    if (status != nullptr) {
      status->source = u.env.src_rank;
      status->tag = u.env.tag;
      status->bytes = u.kind == Arrival::Kind::Inline ? u.data.size() : u.total;
    }
  };
  if (mode_ == Mode::List || src_rank != kAnySource) {
    Shard& sh = shard_of(comm, src_rank);
    std::lock_guard<hw::L2AtomicMutex> g(sh.mu);
    MatchNode* u = find_unexpected(sh, comm, src_rank, tag);
    if (u == nullptr) return false;
    fill(*u);
    return true;
  }
  // ANY_SOURCE: report the oldest matching arrival across all shards
  // (each shard's order list yields its own oldest; compare stamps).
  const MatchNode* oldest = nullptr;
  Status st;
  for (int i = 0; i < shard_count_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<hw::L2AtomicMutex> g(sh.mu);
    MatchNode* u = find_unexpected(sh, comm, kAnySource, tag);
    if (u != nullptr && (oldest == nullptr || u->epoch < oldest->epoch)) {
      oldest = u;
      st.source = u->env.src_rank;
      st.tag = u->env.tag;
      st.bytes = u->kind == Arrival::Kind::Inline ? u->data.size() : u->total;
    }
  }
  if (oldest == nullptr) return false;
  if (status != nullptr) *status = st;
  return true;
}

void Matcher::post_recv(Request req, int comm, int src_rank, int tag) {
  if (mode_ == Mode::List || src_rank != kAnySource) {
    Shard& sh = shard_of(comm, src_rank);
    std::lock_guard<hw::L2AtomicMutex> g(sh.mu);
    if (MatchNode* u = find_unexpected(sh, comm, src_rank, tag)) {
      take_unexpected(sh, u);
      bind_unexpected(sh, req, u);
      return;
    }
    MatchNode* n = alloc_node(sh);
    n->comm = comm;
    n->src = src_rank;
    n->tag = tag;
    n->req = std::move(req);
    n->epoch = epoch_.fetch_add(1, std::memory_order_relaxed);
    push_ord(sh.posted_all, n);
    if (mode_ == Mode::Bins) {
      if (tag == kAnyTag) {
        push_bin(sh.wild_local, n);
        ++sh.wild_count;
      } else {
        push_bin(sh.posted_bins[bin_of(comm, src_rank, tag)], n);
      }
    }
    return;
  }

  // ANY_SOURCE in bins mode: two-phase. Phase one *publishes* the receive
  // on the global list; phase two scans every shard's unexpected queue.
  // An arrival from any source either stored its message before our scan
  // reaches its shard (the scan finds it) or runs after our publication
  // (its slow path finds us) — the shard mutex serializes the two, so no
  // message slips between. Lock order is always shard → global.
  MatchNode* node = nullptr;
  std::uint64_t my_gen = 0;
  {
    std::lock_guard<hw::L2AtomicMutex> g(gw_.mu);
    node = alloc_node(gw_.free_head, pvars_);
    node->comm = comm;
    node->src = kAnySource;
    node->tag = tag;
    node->req = req;  // the scan below keeps its own handle
    node->epoch = epoch_.fetch_add(1, std::memory_order_relaxed);
    node->in_list = true;
    my_gen = node->gen;
    push_ord(gw_.list, node);
    gw_.count.fetch_add(1, std::memory_order_release);
  }
  for (int i = 0; i < shard_count_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<hw::L2AtomicMutex> g(sh.mu);
    MatchNode* u = find_unexpected(sh, comm, kAnySource, tag);
    if (u == nullptr) continue;
    {
      // Reclaim our published node before claiming the message. The
      // (pointer, generation) check detects a concurrent arrival having
      // already matched (and recycled) it — then the receive is complete
      // and the unexpected message stays for a later receive.
      std::lock_guard<hw::L2AtomicMutex> g2(gw_.mu);
      if (node->gen != my_gen || !node->in_list) return;
      unlink_ord(gw_.list, node);
      gw_.count.fetch_sub(1, std::memory_order_acq_rel);
      recycle_node(gw_.free_head, node);
    }
    take_unexpected(sh, u);
    bind_unexpected(sh, req, u);
    return;
  }
}

void Matcher::post_recv_ep(int ep, Request req, int comm, int src_rank, int tag) {
  assert(ep >= 0 && ep < ep_count_);
  assert(src_rank != kAnySource && "ANY_SOURCE receives go through post_recv");
  // Owner thread only — no lock, no shared cache lines. ANY_TAG is fine
  // (it rides the shard-local wildcard list); only the source wildcard
  // needs the global serialized path.
  Shard& sh = ep_shards_[ep];
  if (MatchNode* u = find_unexpected(sh, comm, src_rank, tag)) {
    take_unexpected(sh, u);
    bind_unexpected(sh, req, u);
    return;
  }
  MatchNode* n = alloc_node(sh);
  n->comm = comm;
  n->src = src_rank;
  n->tag = tag;
  n->req = std::move(req);
  n->epoch = sh.local_epoch++;
  push_ord(sh.posted_all, n);
  if (tag == kAnyTag) {
    push_bin(sh.wild_local, n);
    ++sh.wild_count;
  } else {
    push_bin(sh.posted_bins[bin_of(comm, src_rank, tag)], n);
  }
}

void Matcher::scan_endpoint_for_global(int ep) {
  assert(ep >= 0 && ep < ep_count_);
  Shard& sh = ep_shards_[ep];
  // Marry outstanding global ANY_SOURCE receives to this shard's
  // unexpected backlog: for each backlog message in arrival order, claim
  // the oldest matching wildcard (the global list is post-ordered). Runs
  // on the owner thread — posted to the bound context right after a
  // wildcard publishes, mirroring post_recv's hashed-shard sweep.
  MatchNode* u = sh.unexp_all.head;
  while (u != nullptr && gw_.count.load(std::memory_order_acquire) > 0) {
    MatchNode* next = u->ord_next;
    Request wreq;
    bool claimed = false;
    {
      std::lock_guard<hw::L2AtomicMutex> g(gw_.mu);
      for (MatchNode* w = gw_.list.head; w != nullptr; w = w->ord_next) {
        if (!node_matches(*w, u->env)) continue;
        unlink_ord(gw_.list, w);
        w->in_list = false;
        gw_.count.fetch_sub(1, std::memory_order_acq_rel);
        wreq = std::move(w->req);
        recycle_node(gw_.free_head, w);
        gw_.n_matched.fetch_add(1, std::memory_order_relaxed);
        claimed = true;
        break;
      }
    }
    if (claimed) {
      take_unexpected(sh, u);
      bind_unexpected(sh, wreq, u);
    }
    u = next;
  }
}

}  // namespace pamix::mpi

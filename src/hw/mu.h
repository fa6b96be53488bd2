// Messaging Unit (MU) — software model of the BG/Q network DMA engine.
//
// The MU moves data between node memory and the 5D torus.  Software
// initiates every transfer by writing a 64-byte *descriptor* into one of the
// node's 544 injection FIFOs (32 per core x 17 cores); MU message engines
// drain the FIFOs, cut messages into packets (32B header + up to 512B
// payload), and inject them into the network.  On arrival a packet is
// handled by type:
//
//   * memory FIFO  — appended to one of 272 reception FIFOs (16 per core)
//                    for software to poll; carries software dispatch bytes.
//   * direct put   — payload DMA'd straight to a destination buffer; a
//                    reception counter is decremented by the bytes written
//                    (RDMA write).
//   * remote get   — the payload *is* a descriptor; the destination MU
//                    injects it into a local injection FIFO, typically
//                    producing a direct put back to the requester
//                    (RDMA read). This is the heart of PAMI's rendezvous.
//
// PAMI partitions the FIFOs across contexts so each context owns hardware
// exclusively and never locks.  Injection FIFOs are pinned per destination
// so that successive sends to the same peer stay ordered (MPI ordering).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/inline_fn.h"
#include "hw/l2_atomics.h"
#include "hw/torus.h"
#include "obs/pvar.h"

namespace pamix::hw {

class WakeupUnit;

/// MU hardware resource shape (per node), as on BG/Q.
inline constexpr int kMuCores = 17;  // 16 app cores + 1 kernel core
inline constexpr int kInjFifosPerCore = 32;
inline constexpr int kRecFifosPerCore = 16;
inline constexpr int kInjFifoCount = kMuCores * kInjFifosPerCore;  // 544
inline constexpr int kRecFifoCount = kMuCores * kRecFifosPerCore;  // 272

/// Packet geometry.
inline constexpr std::size_t kPacketHeaderBytes = 32;
inline constexpr std::size_t kMaxPacketPayload = 512;
inline constexpr std::size_t kPayloadGranule = 32;

/// Packets the message engine cuts from one descriptor and hands to the
/// network in one call. Transport, reception FIFO, counters and wakeup
/// synchronize once per burst, not once per packet — the software stand-in
/// for the hardware doing per-packet work without host synchronization.
inline constexpr std::size_t kMuBurstPackets = 16;

enum class MuPacketType : std::uint8_t {
  MemoryFifo,
  DirectPut,
  RemoteGet,
};

/// Routing selector. Deterministic (dimension-ordered) routing preserves
/// packet order between a (source FIFO, destination) pair; dynamic routing
/// may adapt per packet and is used for bulk RDMA payload where ordering is
/// enforced by counters rather than arrival order.
enum class MuRouting : std::uint8_t { Deterministic, Dynamic };

/// Reception counter used by direct puts: initialized to the message size
/// and decremented by each arriving packet's payload bytes; software polls
/// for <= 0. Backed by an L2 atomic word on the real machine as well.
struct MuReceptionCounter {
  std::atomic<std::int64_t> bytes_remaining{0};

  void prime(std::int64_t bytes) { bytes_remaining.store(bytes, std::memory_order_release); }
  void decrement(std::int64_t bytes) {
    bytes_remaining.fetch_sub(bytes, std::memory_order_acq_rel);
  }
  bool complete() const { return bytes_remaining.load(std::memory_order_acquire) <= 0; }
};

/// Software header carried in memory-FIFO packets (fits the 32B packet
/// header's software bytes plus the first payload granule, as PAMI lays it
/// out). Identifies the dispatch handler and message framing at the target.
struct MuSoftwareHeader {
  std::uint16_t dispatch_id = 0;
  std::uint16_t dest_context = 0;
  std::uint32_t origin_task = 0;
  std::uint16_t origin_context = 0;
  std::uint16_t flags = 0;
  std::uint16_t header_bytes = 0;  // user-header prefix of the payload stream
  std::uint64_t msg_seq = 0;       // message id for multi-packet reassembly
  std::uint32_t msg_bytes = 0;     // total payload-stream bytes of the message
  std::uint32_t packet_offset = 0; // offset of this packet within the stream
  std::uint64_t metadata = 0;      // protocol-private immediate word
};

/// A 64-byte injection descriptor (message-level, as software writes it).
struct MuDescriptor {
  MuPacketType type = MuPacketType::MemoryFifo;
  MuRouting routing = MuRouting::Deterministic;
  /// Torus hint bits (hw::torus_hint): force the route direction in the
  /// flagged dimensions instead of taking the shortest way round the ring.
  std::uint16_t hints = 0;
  int dest_node = 0;
  /// Deposit bit: the packet is *also* delivered at every intermediate
  /// node along the (single-dimension) route — the hardware line
  /// broadcast that underlies the multicolor rectangle algorithms.
  bool deposit = false;

  // Payload source (local memory). Null for header-only messages.
  const std::byte* payload = nullptr;
  std::size_t payload_bytes = 0;
  // Staged payload owned by the descriptor (eager protocol stages header +
  // user payload into one pooled buffer; recycled after injection).
  core::Buf staged;

  // MemoryFifo: target reception FIFO and software header.
  int rec_fifo = 0;
  MuSoftwareHeader sw;

  // DirectPut: destination buffer (CNK global VA) and reception counter.
  std::byte* put_dest = nullptr;
  MuReceptionCounter* rec_counter = nullptr;

  // RemoteGet: descriptor to execute at the destination, and the
  // destination injection FIFO it is inserted into.
  std::shared_ptr<MuDescriptor> remote_payload;
  int remote_inj_fifo = 0;

  // Local injection completion callback (optional): fires when the MU has
  // fully consumed this descriptor's payload from local memory. Same
  // inline-callable type as pami::EventFn, so completion callbacks move in
  // without re-wrapping (and without allocating).
  core::SmallFn on_injected;
};

/// A packet in flight: header fields + a copy of its payload slice.
/// Move-only: the payload is a pooled buffer recycled when the packet is
/// consumed. Paths that genuinely duplicate a packet (the deposit-bit line
/// broadcast) use clone().
struct MuPacket {
  MuPacketType type = MuPacketType::MemoryFifo;
  MuRouting routing = MuRouting::Deterministic;
  std::uint16_t hints = 0;  // torus hint bits, copied from the descriptor
  bool deposit = false;
  int src_node = 0;
  int dest_node = 0;
  int rec_fifo = 0;
  MuSoftwareHeader sw;
  std::byte* put_dest = nullptr;
  MuReceptionCounter* rec_counter = nullptr;
  std::shared_ptr<MuDescriptor> remote_payload;
  int remote_inj_fifo = 0;
  core::Buf payload;

  /// Deep copy (payload lands in a pool-independent heap block: the copy's
  /// lifetime is unbounded by any pool).
  MuPacket clone() const {
    MuPacket c;
    c.type = type;
    c.routing = routing;
    c.hints = hints;
    c.deposit = deposit;
    c.src_node = src_node;
    c.dest_node = dest_node;
    c.rec_fifo = rec_fifo;
    c.sw = sw;
    c.put_dest = put_dest;
    c.rec_counter = rec_counter;
    c.remote_payload = remote_payload;
    c.remote_inj_fifo = remote_inj_fifo;
    c.payload = payload.clone();
    return c;
  }
};

/// An injection FIFO: a bounded ring of descriptors. The owning context is
/// the single producer; the MU message engine is the single consumer, so the
/// head/tail words need no locking (exactly the hardware contract).
class InjFifo {
 public:
  explicit InjFifo(std::size_t capacity = 128) : capacity_(capacity) {}

  /// Push a descriptor. On failure (FIFO full) the descriptor is left
  /// intact in the caller's hands for the retry; it is consumed only on
  /// success. The ring storage is allocated on the first push — most of a
  /// node's 544 FIFOs are never used, which matters at the 4096-node
  /// geometries the DES backend hosts. The release store on tail_
  /// publishes the allocation to the consumer side.
  bool push(MuDescriptor&& desc) {
    const std::uint64_t head = head_.value.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.value.load(std::memory_order_relaxed);
    if (tail - head >= capacity_) return false;  // FIFO full -> caller retries
    if (ring_.empty()) ring_.resize(capacity_);
    ring_[tail % ring_.size()] = std::move(desc);
    tail_.value.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool pop(MuDescriptor& out) {
    const std::uint64_t tail = tail_.value.load(std::memory_order_acquire);
    const std::uint64_t head = head_.value.load(std::memory_order_relaxed);
    if (head == tail) return false;  // never touches a not-yet-allocated ring
    out = std::move(ring_[head % ring_.size()]);
    head_.value.store(head + 1, std::memory_order_release);
    return true;
  }

  bool empty() const {
    return head_.value.load(std::memory_order_acquire) ==
           tail_.value.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t injected_total() const { return head_.value.load(std::memory_order_acquire); }

 private:
  L2Word head_;  // consumer (MU engine) index
  L2Word tail_;  // producer (software) index
  std::size_t capacity_;
  std::vector<MuDescriptor> ring_;  // lazily sized to capacity_ on first push
};

/// A reception FIFO: packets delivered by the network, polled by the owning
/// context. The network side may be fed by many remote nodes concurrently;
/// the hardware serializes those appends, modelled by a short mutex taken
/// once per delivered burst.
///
/// Storage is a fixed ring (allocated lazily on first delivery — most of a
/// node's 272 FIFOs are never used) with a deque spillover beyond the ring,
/// so steady-state delivery/poll recycles ring slots without allocating.
/// FIFO order is preserved by routing every delivery to the spillover while
/// it is non-empty. `poll_batch` drains up to `max` packets under a single
/// lock acquisition — the batched-drain half of the MU fast path.
class RecFifo {
 public:
  explicit RecFifo(std::size_t capacity_packets = 4096) : capacity_(capacity_packets) {}

  /// Network-side append of a burst, under one lock. Returns how many
  /// packets (a prefix of `pkts`) were taken; the rest are left intact
  /// because the FIFO is full, which on the real machine backpressures the
  /// torus — callers retry them.
  std::size_t deliver(MuPacket* pkts, std::size_t n) {
    std::lock_guard<std::mutex> g(mu_);
    const std::size_t take = std::min(n, capacity_ - size_locked());
    if (take == 0) return 0;
    if (ring_.empty()) ring_.resize(std::min(capacity_, kRingSlots));
    for (std::size_t i = 0; i < take; ++i) {
      if (!overflow_.empty() || tail_ - head_ == ring_.size()) {
        overflow_.push_back(std::move(pkts[i]));
      } else {
        ring_[tail_ % ring_.size()] = std::move(pkts[i]);
        ++tail_;
      }
    }
    delivered_.fetch_add(take, std::memory_order_release);
    return take;
  }

  /// Consumer-side batched poll: move up to `max` packets into `out`.
  /// One lock acquisition per batch.
  std::size_t poll_batch(MuPacket* out, std::size_t max) {
    if (max == 0 || empty()) return 0;
    std::lock_guard<std::mutex> g(mu_);
    std::size_t n = 0;
    while (n < max && head_ != tail_) {
      out[n++] = std::move(ring_[head_ % ring_.size()]);
      ++head_;
    }
    while (n < max && !overflow_.empty()) {
      out[n++] = std::move(overflow_.front());
      overflow_.pop_front();
    }
    consumed_.fetch_add(n, std::memory_order_release);
    return n;
  }

  /// Consumer-side single poll.
  bool poll(MuPacket& out) { return poll_batch(&out, 1) == 1; }

  /// Lock-free: delivered/consumed are monotonic, so equality is a stable
  /// "nothing pending" signal for sleep predicates and idle checks.
  bool empty() const {
    return consumed_.load(std::memory_order_acquire) ==
           delivered_.load(std::memory_order_acquire);
  }

  /// Monotonic delivery count; its address can be placed under a wakeup
  /// watch so commthreads sleep until a packet arrives.
  const std::atomic<std::uint64_t>& delivered_count() const { return delivered_; }

 private:
  static constexpr std::size_t kRingSlots = 256;

  std::size_t size_locked() const { return (tail_ - head_) + overflow_.size(); }

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<MuPacket> ring_;  // lazily sized min(capacity_, kRingSlots)
  std::uint64_t head_ = 0;      // ring consume index (guarded by mu_)
  std::uint64_t tail_ = 0;      // ring produce index (guarded by mu_)
  std::deque<MuPacket> overflow_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> consumed_{0};
};

/// Where the MU hands packets for transport. Implemented by the functional
/// network (immediate routed delivery) and by the DES (timed delivery).
class NetworkPort {
 public:
  virtual ~NetworkPort() = default;
  /// Transport a burst of at most kMuBurstPackets packets cut from one
  /// descriptor (one type, destination, reception FIFO and counter) to its
  /// destination node. Returns how many, a prefix of `pkts`, were
  /// accepted; the rest stay intact for the sender to retry
  /// (backpressure). A single packet is a burst of one.
  virtual std::size_t transmit(MuPacket* pkts, std::size_t n) = 0;
};

/// The per-node messaging unit: FIFO arrays, context partitioning, and the
/// message engines that packetize and inject.
class MessagingUnit {
 public:
  MessagingUnit(int node_id, NetworkPort* port, WakeupUnit* wakeup,
                std::size_t inj_capacity = 128, std::size_t rec_capacity = 4096);

  int node_id() const { return node_id_; }

  /// Exclusive FIFO allocation for a context (no locking needed afterwards).
  /// Returns indices into the node's FIFO arrays.
  std::vector<int> allocate_inj_fifos(int count);
  std::vector<int> allocate_rec_fifos(int count);
  int inj_fifos_available() const;
  int rec_fifos_available() const;

  InjFifo& inj_fifo(int idx) { return *inj_[static_cast<std::size_t>(idx)]; }
  RecFifo& rec_fifo(int idx) { return *rec_[static_cast<std::size_t>(idx)]; }

  /// Run the message engine over one injection FIFO: resume a descriptor
  /// backpressured mid-message, then pop descriptors, packetize, transmit.
  /// Returns the number of descriptors fully injected. The caller (context
  /// advance or MU engine thread) supplies only FIFOs it owns.
  int advance_injection(int fifo_idx);

  /// Create injection FIFO `fifo_idx`'s resume slot now rather than on its
  /// first advance, so a context that claims the FIFO at construction
  /// never allocates for it on the send path (owner context only).
  void prepare_injection(int fifo_idx) { pending_slot(fifo_idx); }

  /// FIFO `fifo_idx` still holds work for its message engine: a queued
  /// descriptor, or one backpressured mid-message. Owner context only.
  bool injection_backlogged(int fifo_idx) const {
    const auto i = static_cast<std::size_t>(fifo_idx);
    return (pending_[i] != nullptr && pending_[i]->active) || !inj_[i]->empty();
  }

  /// Network-side delivery entry point: dispatch a burst cut from one
  /// descriptor by its type, with one FIFO lock, one counter update and
  /// one wakeup notify. Returns how many packets (a prefix) were accepted;
  /// fewer than `n` means backpressure (memory FIFO full).
  std::size_t receive(MuPacket* pkts, std::size_t n);

  /// Total packets received by type, for tests and stats.
  std::uint64_t packets_received(MuPacketType t) const {
    return rx_count_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
  }

  /// Inject a single descriptor directly, bypassing the FIFO (remote-get
  /// servicing). Assumes no backpressure.
  bool inject_one(MuDescriptor& desc);

  /// Pre-size injection FIFO `fifo_idx`'s staging pool so that `count`
  /// messages of `bytes` each can be in flight at once without a miss
  /// (owner context only, like injection itself).
  void reserve_staging(int fifo_idx, std::size_t bytes, std::size_t count);

  /// Misses (acquires that had to allocate) of the injection staging
  /// pools since construction. Read from the thread that owns every
  /// allocated injection FIFO, or at quiescence.
  std::uint64_t staging_pool_misses() const;
  /// Misses of the remote-get service pool since construction (any thread).
  std::uint64_t service_pool_misses() {
    std::lock_guard<L2AtomicMutex> g(svc_mu_);
    return svc_pool_.misses();
  }

  /// This node's MU telemetry domain (packet counters; no trace ring —
  /// the MU is driven concurrently from many threads).
  obs::Domain& obs() { return obs_; }

 private:
  bool inject_resumable(int fifo_idx);
  core::BufferPool& inj_pool(int fifo_idx);

  int node_id_;
  NetworkPort* port_;
  WakeupUnit* wakeup_;
  obs::Domain& obs_;
  std::vector<std::unique_ptr<InjFifo>> inj_;
  std::vector<std::unique_ptr<RecFifo>> rec_;
  std::mutex alloc_mu_;
  int next_inj_ = 0;
  int next_rec_ = 0;
  std::array<std::atomic<std::uint64_t>, 3> rx_count_{};
  // Descriptors whose transmit was backpressured mid-message, resumed on the
  // next advance. One slot per injection FIFO (hardware keeps the partially
  // processed descriptor at the FIFO head likewise). Slots are allocated
  // by the FIFO's single owning context — at its construction through
  // prepare_injection(), or else on first advance — never for the whole
  // node up front: a full descriptor-sized slot per never-used FIFO is
  // real memory at 4096 simulated nodes.
  struct PendingInj {
    MuDescriptor desc;
    std::size_t off = 0;
    bool active = false;
  };
  PendingInj& pending_slot(int fifo_idx);
  std::vector<std::unique_ptr<PendingInj>> pending_;
  // Packet-payload staging pools. Each injection FIFO is owned by exactly
  // one context, so its pool is single-consumer and allocated lazily on
  // first use (most of the 544 FIFOs are never touched). Remote-get
  // servicing runs on arbitrary sender threads, so it stages from a
  // shared pool serialized by an L2-atomic mutex, taken once per burst.
  std::vector<std::unique_ptr<core::BufferPool>> inj_pools_;
  core::BufferPool svc_pool_;
  L2AtomicMutex svc_mu_;
};

}  // namespace pamix::hw

// Shared-memory device — intra-node messaging over L2-atomic lockless
// queues (paper §III-F).
//
// Each process owns exactly one reception queue; peers atomically append
// to it (bounded-increment slot allocation, mirroring the work queue).
// One queue per process — rather than per pair or per context — is the
// memory-scaling choice the paper calls out.  Short messages copy their
// payload inline through the queue slot (the L2 is the wire); large
// messages ride zero-copy: the packet carries the sender's buffer address
// and the receiver copies directly out of it through the CNK global
// virtual address, then raises the sender's completion flag.
//
// The queue's tail word lives in a wakeup region, so commthreads sleeping
// on the wakeup unit resume when an intra-node message lands.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/types.h"
#include "hw/l2_atomics.h"
#include "hw/mu.h"
#include "hw/wakeup_unit.h"

namespace pamix::pami {

/// A message traversing the shared-memory device. Move-only: header and
/// inline payload are pooled buffers staged by the sending context and
/// recycled (cross-thread) once the receiver consumes the packet.
struct ShmPacket {
  DispatchId dispatch = 0;
  std::int16_t dest_context = 0;
  Endpoint origin;
  std::uint16_t flags = 0;
  std::uint64_t metadata = 0;
  core::Buf header;
  // Eager: payload copied inline.
  core::Buf inline_payload;
  std::uint16_t header_bytes = 0;
  // Zero-copy: sender's buffer (readable via global VA) + completion
  // counter the receiver decrements once it has copied the data out
  // (the same counter type the MU uses, so senders poll both uniformly).
  const std::byte* zero_copy_src = nullptr;
  std::size_t total_bytes = 0;
  hw::MuReceptionCounter* sender_complete = nullptr;
};

/// The per-process reception queue. Multi-producer (any process on the
/// node), single-consumer (the owning process's advancing context).
class ShmQueue {
 public:
  explicit ShmQueue(std::size_t capacity = 512, hw::WakeupUnit* wakeup = nullptr)
      : slots_(capacity), wakeup_(wakeup) {
    hw::l2::store(bound_, capacity);
    for (auto& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

  ShmQueue(const ShmQueue&) = delete;
  ShmQueue& operator=(const ShmQueue&) = delete;

  void push(ShmPacket&& pkt) {
    const std::uint64_t idx = hw::l2::load_increment_bounded(tail_, bound_);
    if (idx == hw::kL2BoundedFailure) {
      {
        std::lock_guard<hw::L2AtomicMutex> g(overflow_mutex_);
        overflow_.push_back(std::move(pkt));
      }
      overflow_count_.fetch_add(1, std::memory_order_release);
    } else {
      Slot& s = slots_[idx % slots_.size()];
      s.pkt = std::move(pkt);
      s.seq.store(idx + 1, std::memory_order_release);
    }
    if (wakeup_ != nullptr) wakeup_->notify_write(&tail_);
  }

  bool pop(ShmPacket& out) {
    const std::uint64_t tail = hw::l2::load(tail_);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head != tail) {
      Slot& s = slots_[head % slots_.size()];
      while (s.seq.load(std::memory_order_acquire) != head + 1) {
        hw::cpu_relax();
      }
      out = std::move(s.pkt);
      s.pkt = ShmPacket{};
      head_.store(head + 1, std::memory_order_release);
      hw::l2::store(bound_, head + 1 + slots_.size());
      return true;
    }
    if (overflow_count_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<hw::L2AtomicMutex> g(overflow_mutex_);
      if (!overflow_.empty()) {
        out = std::move(overflow_.front());
        overflow_.pop_front();
        overflow_count_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) == hw::l2::load(tail_) &&
           overflow_count_.load(std::memory_order_acquire) == 0;
  }

  const void* wakeup_address() const { return &tail_; }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    ShmPacket pkt;
  };

  hw::L2Word tail_;
  hw::L2Word bound_;
  // pop() runs under the device's router mutex, but empty() is a lockless
  // sleep predicate on other threads — same discipline as WorkQueue.
  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
  hw::L2AtomicMutex overflow_mutex_;
  std::deque<ShmPacket> overflow_;
  std::atomic<std::int64_t> overflow_count_{0};
  hw::WakeupUnit* wakeup_;
};

/// Per-process shared-memory device: the process's reception queue plus
/// per-context routing. Any context of the process may advance the device;
/// packets destined to other contexts are parked in per-context staging
/// (so the single process queue never head-of-line-blocks a context), and
/// handlers always run outside the router lock.
///
/// Each context's staging size is mirrored in an atomic count, so an
/// advance that finds the queue empty and nothing staged returns without
/// the router lock, and the commthread sleep check idle(ctx) never takes it.
class ShmDevice {
 public:
  ShmDevice(int context_count, std::size_t queue_capacity, hw::WakeupUnit* wakeup)
      : queue_(queue_capacity, wakeup),
        staging_(static_cast<std::size_t>(context_count)),
        staged_(static_cast<std::size_t>(context_count)),
        drain_(static_cast<std::size_t>(context_count)) {}

  ShmQueue& queue() { return queue_; }
  const void* wakeup_address() const { return queue_.wakeup_address(); }

  /// Drain packets for context `ctx`, invoking `handle` on each (outside
  /// all locks). Returns the number of packets handled.
  ///
  /// Templated on the handler (no std::function) and double-buffered: the
  /// context's staging vector is swapped out whole under the router lock
  /// and swapped back (emptied, capacity retained) afterwards, so a
  /// steady-state drain performs no allocation.
  template <typename Handler>
  std::size_t advance(std::int16_t ctx, Handler&& handle) {
    const auto c = static_cast<std::size_t>(ctx);
    // Idle pass: a packet a sibling is routing to us right now shows up in
    // the staged count when it finishes, and the next pass takes it.
    if (queue_.empty() && staged_[c].n.load(std::memory_order_acquire) == 0) return 0;
    std::vector<ShmPacket> mine = std::move(drain_[c]);
    mine.clear();
    {
      std::lock_guard<hw::L2AtomicMutex> g(router_mutex_);
      // Raised before the first pop: idle(ctx) of a context whose packet
      // is between the queue and its staging must not read "idle".
      routing_.store(true, std::memory_order_relaxed);
      ShmPacket pkt;
      while (queue_.pop(pkt)) {
        const auto dest = static_cast<std::size_t>(pkt.dest_context);
        staging_[dest].push_back(std::move(pkt));
        staged_[dest].n.store(staging_[dest].size(), std::memory_order_relaxed);
      }
      staging_[c].swap(mine);
      staged_[c].n.store(0, std::memory_order_relaxed);
      routing_.store(false, std::memory_order_release);
    }
    for (ShmPacket& p : mine) handle(std::move(p));
    const std::size_t n = mine.size();
    mine.clear();
    drain_[c] = std::move(mine);
    return n;
  }

  bool idle() const { return queue_.empty(); }

  /// One context's view of the device: the process queue plus any packets
  /// a sibling context's advance already routed into this context's
  /// staging. The queue-only idle() misses staged packets, which would let
  /// a commthread sleep on work that no wakeup write will ever announce.
  ///
  /// Lock-free. Order matters: a queue that reads empty because a router
  /// popped our packet makes that router's routing_ raise visible, so we
  /// read either the raise or its release, which publishes the count.
  bool idle(std::int16_t ctx) const {
    if (!queue_.empty()) return false;
    if (routing_.load(std::memory_order_acquire)) return false;
    return staged_[static_cast<std::size_t>(ctx)].n.load(std::memory_order_acquire) == 0;
  }

 private:
  struct alignas(64) StagedCount {
    std::atomic<std::size_t> n{0};
  };

  ShmQueue queue_;
  hw::L2AtomicMutex router_mutex_;
  // A router holds router_mutex_ and may have popped packets it has not
  // yet counted into staged_.
  std::atomic<bool> routing_{false};
  std::vector<std::vector<ShmPacket>> staging_;  // guarded by router_mutex_
  // staging_[i].size(), written under router_mutex_, read lock-free.
  std::vector<StagedCount> staged_;
  // Per-context drain scratch, touched only by that context's advancer.
  std::vector<std::vector<ShmPacket>> drain_;
};

}  // namespace pamix::pami

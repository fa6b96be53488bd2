// BufferPool — cache-line-aligned, size-classed freelist pools for the
// messaging fast path.
//
// PAMI's injection/reception path on BG/Q never calls a general-purpose
// allocator per message: payload staging comes from recycled, fixed-class
// buffers. This header reproduces that discipline:
//
//   * `Buf`   — a move-only RAII handle to one pooled block. 16 bytes, so
//               it rides inside MuPacket/ShmPacket/MuDescriptor by value.
//   * `BufferPool` — per-owner freelists over a fixed set of size classes.
//     Acquire is owner-thread-only (single consumer, zero atomics on the
//     hit path); release may happen on ANY thread and is one CAS that
//     pushes the block onto its class's reclaim stack. The owner takes a
//     whole stack back with one `exchange`, so nothing ever pops a single
//     node and the stack is ABA-free: lockless on the critical path, as
//     the paper asks of the messaging fast path.
//
// Lifetime: blocks routinely outlive their pool (a packet delivered to a
// peer node's reception FIFO survives the sender's teardown; tests tear
// machines down with traffic in flight). Each block therefore points at
// its pool's core, which counts the blocks still alive. Pool teardown
// swaps a `closed` sentinel into every reclaim stack; a release that sees
// it frees the block to the heap, and whoever drops the core's last
// reference (the pool or the last straggler block) deletes the core. No
// destruction-order contract is imposed on callers.
//
// Counters: acquisitions served from a freelist count `alloc.pool_hits`;
// freelist misses that had to allocate count `alloc.pool_misses`; requests
// larger than the biggest class count `alloc.heap_fallbacks`. A bound
// PvarSet is optional — pools work untracked.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "obs/pvar.h"

namespace pamix::core {

/// Payload size classes, chosen around the stack's natural shapes: small
/// control headers (128), an MU packet payload (512), eager staging of a
/// few packets (2K), and two coarse classes for large eager/RTS staging.
inline constexpr std::size_t kBufClassSizes[] = {128, 512, 2048, 8192, 32768};
inline constexpr std::size_t kBufClassCount =
    sizeof(kBufClassSizes) / sizeof(kBufClassSizes[0]);
inline constexpr std::size_t kBufMaxPooledBytes = kBufClassSizes[kBufClassCount - 1];

namespace detail {

struct BufBlock;

/// The part of a pool that blocks can outlive: one push-only reclaim stack
/// per size class, and a reference count held by the pool itself and by
/// every block it created. Whoever drops the last reference deletes it.
struct PoolCore {
  std::atomic<BufBlock*> reclaim[kBufClassCount]{};
  std::atomic<std::size_t> refs{1};

  /// Swapped into every reclaim stack at pool teardown. Misaligned, so it
  /// can never equal a real block; never dereferenced.
  static BufBlock* closed() { return reinterpret_cast<BufBlock*>(std::uintptr_t{1}); }

  void unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

/// Block header. Exactly one cache line; payload starts at offset 64 so
/// data is cache-line-aligned and never false-shares with the header's
/// freelist link. `core == nullptr` marks a heap-fallback (oversize)
/// block that is simply deleted on release.
struct alignas(64) BufBlock {
  PoolCore* core = nullptr;
  BufBlock* next = nullptr;
  std::uint32_t class_idx = 0;
  std::size_t capacity = 0;

  std::byte* data() { return reinterpret_cast<std::byte*>(this) + sizeof(BufBlock); }
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(BufBlock);
  }

  /// Called by the pool's owner, which holds a reference on `core`, so a
  /// relaxed increment cannot race the count to zero.
  static BufBlock* create(PoolCore* core, std::uint32_t class_idx, std::size_t capacity) {
    void* raw = ::operator new(sizeof(BufBlock) + capacity, std::align_val_t{64});
    auto* b = ::new (raw) BufBlock();
    b->core = core;
    b->class_idx = class_idx;
    b->capacity = capacity;
    if (core != nullptr) core->refs.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  static void destroy(BufBlock* b) {
    PoolCore* core = b->core;
    b->~BufBlock();
    ::operator delete(static_cast<void*>(b), std::align_val_t{64});
    if (core != nullptr) core->unref();
  }
};

static_assert(sizeof(BufBlock) == 64, "block header must be exactly one cache line");

/// Return a block to its pool (any thread) or to the heap: one CAS onto
/// the class's reclaim stack, or a heap free once the pool is closed.
inline void release_block(BufBlock* b) {
  if (b == nullptr) return;
  if (b->core == nullptr) {
    BufBlock::destroy(b);
    return;
  }
  std::atomic<BufBlock*>& head = b->core->reclaim[b->class_idx];
  BufBlock* h = head.load(std::memory_order_relaxed);
  do {
    if (h == PoolCore::closed()) {
      BufBlock::destroy(b);
      return;
    }
    b->next = h;
  } while (!head.compare_exchange_weak(h, b, std::memory_order_release,
                                       std::memory_order_relaxed));
}

}  // namespace detail

/// Move-only handle to pooled (or heap-fallback) bytes. `size()` is the
/// logical length; `capacity()` the class size. Destruction returns the
/// block to its pool from any thread.
class Buf {
 public:
  Buf() = default;
  Buf(detail::BufBlock* b, std::size_t size) : b_(b), size_(size) {}

  Buf(Buf&& o) noexcept : b_(o.b_), size_(o.size_) {
    o.b_ = nullptr;
    o.size_ = 0;
  }
  Buf& operator=(Buf&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = o.b_;
      size_ = o.size_;
      o.b_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;
  ~Buf() { reset(); }

  void reset() {
    detail::release_block(b_);
    b_ = nullptr;
    size_ = 0;
  }

  std::byte* data() { return b_ != nullptr ? b_->data() : nullptr; }
  const std::byte* data() const { return b_ != nullptr ? b_->data() : nullptr; }
  std::byte& operator[](std::size_t i) { return data()[i]; }
  const std::byte& operator[](std::size_t i) const { return data()[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return b_ != nullptr ? b_->capacity : 0; }

  /// Shrink or grow within capacity (no reallocation — callers size the
  /// acquire correctly up front).
  void resize(std::size_t n) {
    assert(n <= capacity());
    size_ = n;
  }

  /// Copy `n` bytes in, setting size. Must fit capacity.
  void assign(const void* src, std::size_t n) {
    assert(n <= capacity());
    if (n > 0) std::memcpy(b_->data(), src, n);
    size_ = n;
  }

  /// Pool-independent heap block, for oversize payloads and for deep
  /// copies whose lifetime nobody can bound (deposit-bit broadcast hops).
  static Buf heap(std::size_t n) {
    if (n == 0) return Buf();
    detail::BufBlock* b = detail::BufBlock::create(nullptr, 0, n);
    return Buf(b, n);
  }

  /// Deep copy into a heap block.
  Buf clone() const {
    Buf c = Buf::heap(size_);
    if (size_ > 0) std::memcpy(c.b_->data(), b_->data(), size_);
    return c;
  }

 private:
  detail::BufBlock* b_ = nullptr;
  std::size_t size_ = 0;
};

/// Size-classed freelist pool. `acquire` must be called only by the
/// owning (single-consumer) thread; `Buf` destruction may happen anywhere.
class BufferPool {
 public:
  explicit BufferPool(obs::PvarSet* pvars = nullptr)
      : core_(new detail::PoolCore), pvars_(pvars) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() {
    for (std::size_t c = 0; c < kBufClassCount; ++c) {
      free_list(free_[c]);
      free_list(core_->reclaim[c].exchange(detail::PoolCore::closed(),
                                           std::memory_order_acq_rel));
    }
    core_->unref();
  }

  /// Acquire a buffer of logical size `n` (owner thread only). Sizes above
  /// the largest class fall back to the heap and count as such.
  Buf acquire(std::size_t n) {
    if (n == 0) return Buf();
    const std::size_t cls = class_for(n);
    if (cls == kBufClassCount) {
      count(obs::Pvar::AllocHeapFallbacks);
      return Buf::heap(n);
    }
    detail::BufBlock* b = free_[cls];
    if (b == nullptr) b = take_reclaimed(cls);
    if (b != nullptr) {
      free_[cls] = b->next;
      b->next = nullptr;
      count(obs::Pvar::AllocPoolHits);
      return Buf(b, n);
    }
    count(obs::Pvar::AllocPoolMisses);
    ++misses_;
    ++owned_[cls];
    return Buf(detail::BufBlock::create(core_, static_cast<std::uint32_t>(cls),
                                        kBufClassSizes[cls]),
               n);
  }

  /// Acquires that had to allocate since construction, counted even when
  /// no PvarSet is bound. Owner-thread state: read it at quiescence.
  std::uint64_t misses() const { return misses_; }

  /// Acquire + copy in one step.
  Buf acquire_copy(const void* src, std::size_t n) {
    Buf b = acquire(n);
    if (n > 0) std::memcpy(b.data(), src, n);
    return b;
  }

  /// Grow `n`'s size class until the pool owns at least `count` blocks
  /// of it, free or in use (owner thread only): then `count` acquires
  /// outstanding at once cannot miss, however late their releases come
  /// back, and repeat calls are free. Reserved blocks count as neither
  /// hits nor misses: a miss means demand the owner did not predict,
  /// which is exactly what reserving rules out.
  void reserve(std::size_t n, std::size_t count) {
    if (n == 0) return;
    const std::size_t cls = class_for(n);
    if (cls == kBufClassCount) return;  // oversize requests never pool
    for (; owned_[cls] < count; ++owned_[cls]) {
      detail::BufBlock* b =
          detail::BufBlock::create(core_, static_cast<std::uint32_t>(cls),
                                   kBufClassSizes[cls]);
      b->next = free_[cls];
      free_[cls] = b;
    }
  }

 private:
  static std::size_t class_for(std::size_t n) {
    for (std::size_t c = 0; c < kBufClassCount; ++c) {
      if (n <= kBufClassSizes[c]) return c;
    }
    return kBufClassCount;
  }

  void count(obs::Pvar p) {
    if (pvars_ != nullptr) pvars_->add(p);
  }

  /// Take every block released since the last call in one exchange. The
  /// relaxed peek keeps the common nothing-to-take case free of RMWs.
  detail::BufBlock* take_reclaimed(std::size_t cls) {
    std::atomic<detail::BufBlock*>& head = core_->reclaim[cls];
    if (head.load(std::memory_order_relaxed) == nullptr) return nullptr;
    return head.exchange(nullptr, std::memory_order_acquire);
  }

  static void free_list(detail::BufBlock* b) {
    while (b != nullptr) {
      detail::BufBlock* next = b->next;
      detail::BufBlock::destroy(b);
      b = next;
    }
  }

  detail::PoolCore* core_;
  obs::PvarSet* pvars_;
  detail::BufBlock* free_[kBufClassCount]{};  // owner-thread private freelists
  std::size_t owned_[kBufClassCount]{};       // blocks created per class
  std::uint64_t misses_ = 0;
};

}  // namespace pamix::core

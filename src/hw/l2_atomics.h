// L2 atomic operations — software model of the Blue Gene/Q L2 cache atomic
// unit.
//
// On BG/Q every 8-byte-aligned word in DDR can be operated on atomically
// through special alias addresses decoded by the L2 cache slices.  The op is
// encoded in the alias address, so a single load or store performs an atomic
// read-modify-write with only a few cycles of added latency per concurrent
// request (far cheaper than a lock).  PAMI builds its lockless work queues,
// completion counters and low-overhead mutexes out of these ops.
//
// This model reproduces the op set and its exact result semantics on top of
// std::atomic.  Ops are free functions over `L2Word`; an `L2AtomicDomain`
// provides allocation of words from a "wakeup-region-able" arena plus
// per-node statistics, mirroring how CNK hands L2 atomic memory to PAMI.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace pamix::hw {

/// Pause hint for one busy-wait pass: Waiter's spin phase, and publication
/// spins that wait for a store another thread already has under way. On
/// x86 this is the PAUSE instruction, which de-prioritizes the spinning
/// hyperthread and avoids the memory-order mis-speculation penalty on loop
/// exit; elsewhere it degrades to a compiler barrier so the spin still
/// re-reads memory.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// The wait discipline of every blocking loop: spin with cpu_relax for a
/// budget of idle passes, then yield on every further idle pass. The
/// caller calls pause() after an idle pass and reset() after a productive
/// one (step() does whichever fits); a Waiter going out of scope ends its
/// wait like reset().
///
/// On BG/Q a waiter owns its hardware thread and never needs the yield.
/// A host may run more task threads than it has cores, pin them all to
/// one CPU, or share cores with commthreads, and no process-wide count
/// can tell which. So the budget belongs to the waiting thread and is
/// learned from what its waits observe: after every kSampleWaits waits
/// that had to yield, the thread reads the kernel's count of its own
/// involuntary context switches. If it moved, other threads ran on this
/// core while this one waited (a yield handed the core over, or the
/// scheduler preempted it): the core is shared, spinning keeps the thread
/// being waited for off it, and the budget halves. If it did not, the
/// yields found nothing else to run: spinning costs no one, and the budget
/// doubles. Waits that end while spinning leave it as is.
class Waiter {
 public:
  static constexpr int kMaxSpins = 256;
  /// Yielding waits per budget update: amortizes the getrusage call.
  static constexpr unsigned kSampleWaits = 8;

  Waiter() = default;
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter() { reset(); }

  /// One idle pass. Returns true if it yielded.
  bool pause() {
    if (idle_ < budget()) {
      ++idle_;
      cpu_relax();
      return false;
    }
    yielded_ = true;
    std::this_thread::yield();
    return true;
  }

  /// A productive pass ended the current wait: fold it into the thread's
  /// budget and start the next wait with a full budget.
  void reset() {
    if (yielded_) {
      Tuning& t = tuning();
      if (++t.yielded_waits % kSampleWaits == 0) {
        rusage ru;
        getrusage(RUSAGE_THREAD, &ru);
        t.budget = next_budget(t.budget, /*contended=*/ru.ru_nivcsw != t.switches);
        t.switches = ru.ru_nivcsw;
      }
    }
    idle_ = 0;
    yielded_ = false;
  }

  /// One pass of a polling loop that did `work` units of progress.
  void step(std::size_t work) {
    if (work > 0) {
      reset();
    } else {
      pause();
    }
  }

  /// The calling thread's spin budget (idle passes before the first yield).
  static int budget() { return tuning().budget; }

  /// The budget after a sample: halved if other threads ran on the core,
  /// else doubled (from 0 to 1), within [0, kMaxSpins].
  static constexpr int next_budget(int budget, bool contended) {
    return contended ? budget / 2 : std::min(std::max(2 * budget, 1), kMaxSpins);
  }

 private:
  struct Tuning {
    int budget = kMaxSpins;
    unsigned yielded_waits = 0;
    long switches = 0;  // ru_nivcsw at the last sample
  };
  static Tuning& tuning() {
    thread_local Tuning t;
    return t;
  }

  int idle_ = 0;
  bool yielded_ = false;
};

/// Result returned by bounded ops when the bound would be violated.
/// (Matches the BG/Q encoding: the top bit is set on failure.)
inline constexpr std::uint64_t kL2BoundedFailure = 0x8000000000000000ull;

/// One 8-byte word of L2-atomic-capable memory.
/// Aligned to a cache line to avoid false sharing between hot counters,
/// mirroring the BG/Q guidance of placing atomic counters on distinct lines.
struct alignas(64) L2Word {
  std::atomic<std::uint64_t> value{0};

  L2Word() = default;
  explicit L2Word(std::uint64_t v) : value(v) {}
  L2Word(const L2Word& other) : value(other.value.load(std::memory_order_relaxed)) {}
  L2Word& operator=(const L2Word& other) {
    value.store(other.value.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
};

namespace l2 {

/// Plain atomic load.
inline std::uint64_t load(const L2Word& w) { return w.value.load(std::memory_order_acquire); }

/// Plain atomic store (release so queue payloads written before the store
/// are visible to consumers that acquire-load the word).
inline void store(L2Word& w, std::uint64_t v) { w.value.store(v, std::memory_order_release); }

/// Atomic load; the word is cleared to zero. Returns the prior value.
inline std::uint64_t load_clear(L2Word& w) {
  return w.value.exchange(0, std::memory_order_acq_rel);
}

/// Atomic fetch-and-increment. Returns the prior value.
inline std::uint64_t load_increment(L2Word& w) {
  return w.value.fetch_add(1, std::memory_order_acq_rel);
}

/// Atomic fetch-and-decrement. Returns the prior value.
inline std::uint64_t load_decrement(L2Word& w) {
  return w.value.fetch_sub(1, std::memory_order_acq_rel);
}

/// Bounded fetch-and-increment: succeeds (and increments) only while
/// `w < bound`; otherwise returns kL2BoundedFailure and leaves `w` intact.
///
/// This is the primitive PAMI uses to atomically allocate slots in a
/// fixed-size array queue: the bound word holds the array capacity watermark.
/// On BG/Q the bound is the adjacent 8-byte word of the atomic pair; here it
/// is an explicit second word.
inline std::uint64_t load_increment_bounded(L2Word& w, const L2Word& bound) {
  std::uint64_t cur = w.value.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= bound.value.load(std::memory_order_acquire)) return kL2BoundedFailure;
    if (w.value.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return cur;
    }
  }
}

/// Bounded fetch-and-decrement: succeeds only while `w > bound`.
inline std::uint64_t load_decrement_bounded(L2Word& w, const L2Word& bound) {
  std::uint64_t cur = w.value.load(std::memory_order_relaxed);
  for (;;) {
    if (cur <= bound.value.load(std::memory_order_acquire)) return kL2BoundedFailure;
    if (w.value.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return cur;
    }
  }
}

/// Atomic store-add (no result returned on BG/Q; fire-and-forget update).
inline void store_add(L2Word& w, std::uint64_t v) {
  w.value.fetch_add(v, std::memory_order_acq_rel);
}

/// Atomic store-OR.
inline void store_or(L2Word& w, std::uint64_t v) {
  w.value.fetch_or(v, std::memory_order_acq_rel);
}

/// Atomic store-XOR.
inline void store_xor(L2Word& w, std::uint64_t v) {
  w.value.fetch_xor(v, std::memory_order_acq_rel);
}

/// Atomic store-max (unsigned).
inline void store_max_unsigned(L2Word& w, std::uint64_t v) {
  std::uint64_t cur = w.value.load(std::memory_order_relaxed);
  while (cur < v && !w.value.compare_exchange_weak(cur, v, std::memory_order_acq_rel,
                                                   std::memory_order_relaxed)) {
  }
}

/// Atomic store-twin: store `v` only if the current value equals `v`'s twin
/// word — modelled here as plain compare-and-swap, the closest host
/// equivalent. Returns true on success.
inline bool store_twin(L2Word& w, std::uint64_t expected, std::uint64_t desired) {
  return w.value.compare_exchange_strong(expected, desired, std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
}

}  // namespace l2

/// Low-overhead mutex built from L2 atomics (ticket lock), as used by PAMI
/// to serialize the MPI receive-queue and the work-queue overflow path.
/// Fairness is inherited from the ticket discipline.
class L2AtomicMutex {
 public:
  void lock() {
    const std::uint64_t my = l2::load_increment(next_ticket_);
    Waiter waiter;
    while (l2::load(now_serving_) != my) waiter.pause();
  }

  bool try_lock() {
    std::uint64_t serving = l2::load(now_serving_);
    std::uint64_t expected = serving;
    // Only take a ticket if we would immediately hold the lock.
    return next_ticket_.value.compare_exchange_strong(expected, expected + 1,
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_relaxed);
  }

  void unlock() { l2::store_add(now_serving_, 1); }

 private:
  L2Word next_ticket_;
  L2Word now_serving_;
};

/// Per-node arena of L2-atomic words with named allocation and statistics.
///
/// CNK reserves a region of memory for L2 atomic use at job start; PAMI
/// carves its counters and queue indices from it.  The domain also counts
/// allocations so tests can assert resource usage stays bounded.
class L2AtomicDomain {
 public:
  explicit L2AtomicDomain(std::size_t capacity_words = 4096) { arena_.reserve(capacity_words); }

  L2AtomicDomain(const L2AtomicDomain&) = delete;
  L2AtomicDomain& operator=(const L2AtomicDomain&) = delete;

  /// Allocate one word, optionally named for diagnostics. Never reuses
  /// storage (allocation is job-lifetime on BG/Q as well).
  L2Word* allocate(std::string name = {}) {
    std::lock_guard<L2AtomicMutex> g(alloc_mutex_);
    auto w = std::make_unique<L2Word>();
    L2Word* out = w.get();
    arena_.push_back(std::move(w));
    names_.push_back(std::move(name));
    return out;
  }

  /// Allocate a contiguous block of `n` words (e.g. a queue index array).
  std::vector<L2Word*> allocate_block(std::size_t n, const std::string& name = {}) {
    std::vector<L2Word*> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(allocate(name));
    return out;
  }

  std::size_t allocated_words() const { return arena_.size(); }

 private:
  L2AtomicMutex alloc_mutex_;
  std::vector<std::unique_ptr<L2Word>> arena_;
  std::vector<std::string> names_;
};

}  // namespace pamix::hw

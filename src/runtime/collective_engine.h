// CollectiveNetworkEngine — functional model of the embedded collective
// network's combine/broadcast datapath.
//
// A classroute programmed for reduction accepts one contribution per
// participating node per round; the routers combine contributions flowing
// up the tree and broadcast the result down, RDMA-writing it into each
// node's destination buffer.  Functionally that collapses to: gather all
// contributions for a round, apply the combine op once, copy the result to
// every registered destination, and mark the round complete.  The arm/poll
// interface mirrors the hardware (software injects a descriptor, then
// polls a reception counter), so PAMI's collective code drives this engine
// exactly as it would drive the MU.
//
// Rounds are pipelined: a fast node may contribute to round r+1 while
// stragglers are still completing round r; per-round state is keyed by the
// caller-supplied round number (PAMI sequences collectives per geometry,
// which provides exactly this monotonic round id). Round r lives in slot
// r % 64 of a fixed ring, so different rounds share no lock: each slot has
// its own, and the engine-wide lock covers only the completion window and
// handing a slot back once its round has finished. At most 64 rounds may
// be in flight — the bound the completion window always assumed.
//
// Each round touches its bytes as few times as possible. The first
// contributor with data copies it into its own destination, which becomes
// the round's accumulator; middle contributors combine into it; the last
// contributor combines block by block and fans each block out to every
// other destination while it is still in cache.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hw/classroute.h"
#include "hw/l2_atomics.h"
#include "obs/pvar.h"

namespace pamix::runtime {

/// Apply a combine op elementwise: acc = acc OP in. `acc` and `in` must
/// not partially overlap (the kernel is compiled to vectorize).
void combine_buffers(hw::CombineOp op, hw::CombineType type, void* acc, const void* in,
                     std::size_t bytes);

class CollectiveNetworkEngine {
 public:
  /// Program the engine for `participants` nodes (one master contribution
  /// per node). Mirrors writing the classroute DCRs.
  explicit CollectiveNetworkEngine(int participants);

  struct Ticket {
    std::uint64_t round = 0;
  };

  /// Non-blocking completion hook: fires once, after the round's result
  /// has been RDMA-written to every destination, on the thread whose
  /// contribution completed the round, under no engine locks. A plain
  /// function pointer + argument (not a std::function / InlineFn) so the
  /// runtime layer stays free of core's callable types and the engine
  /// never allocates to store it.
  using CompletionHook = void (*)(void*);

  /// Contribute this node's data for reduction round `round`. Rounds are
  /// numbered 0, 1, 2, ... per engine, and at most 64 may be in flight: a
  /// contribution to round r while round r-64 is still incomplete (or a
  /// second contribution from a node to a finished round) aborts.
  /// `result_dest` is where the network RDMA-writes this node's copy of
  /// the combined result (the master's receive buffer); it may be `data`
  /// itself (in place). Until the round completes, the engine may use the
  /// first contributor's `result_dest` as the round's accumulator, so no
  /// node may read its destination before its round is done. `data` is
  /// consumed by the time the call returns.
  /// `hook` (optional) runs under no locks after the result lands — the
  /// caller's alternative to busy-polling done().
  Ticket contribute_reduce(std::uint64_t round, const void* data, std::size_t bytes,
                           hw::CombineOp op, hw::CombineType type, void* result_dest,
                           CompletionHook hook = nullptr, void* hook_arg = nullptr);

  /// Broadcast round: exactly one contributor (the root's master) supplies
  /// data; every participant still calls in to register its destination
  /// buffer and advance the round.
  Ticket contribute_broadcast(std::uint64_t round, bool is_root, const void* data,
                              std::size_t bytes, void* result_dest,
                              CompletionHook hook = nullptr, void* hook_arg = nullptr);

  /// True once the round of `t` has completed, this node's result has
  /// been written and the round's hooks have returned.
  bool done(const Ticket& t) const;

  int participants() const { return participants_; }

 private:
  /// Slots of the round ring; round r uses slot r % kRoundSlots.
  static constexpr std::size_t kRoundSlots = 64;
  static constexpr std::uint64_t kNoRound = ~std::uint64_t{0};
  using Hook = std::pair<CompletionHook, void*>;

  /// One ring slot. `mu` guards everything but `reclaimed` from the claim
  /// until the round's last contribution arrives; after that only the
  /// last contributor touches the slot, until it sets `reclaimed`.
  struct Round {
    hw::L2AtomicMutex mu;
    std::uint64_t id = kNoRound;
    int arrived = 0;
    hw::CombineOp op = hw::CombineOp::Add;
    hw::CombineType type = hw::CombineType::Double;
    std::size_t bytes = 0;
    /// The round's data so far: the first data contributor's destination,
    /// or `acc` when that contributor has none. Null until data arrives.
    std::byte* accum = nullptr;
    std::vector<std::byte> acc;
    /// Destinations other than `accum` (written when the round fires) and
    /// hooks, in this slot's `participants_`-entry stretch of the stores.
    void** dests = nullptr;
    std::size_t ndests = 0;
    Hook* hooks = nullptr;
    std::size_t nhooks = 0;
    /// Set under the engine lock once the round's hooks have returned:
    /// from then on round id + kRoundSlots may claim the slot.
    std::atomic<bool> reclaimed{true};
  };

  Ticket contribute(std::uint64_t round, bool broadcast, bool provides_data, const void* data,
                    std::size_t bytes, hw::CombineOp op, hw::CombineType type,
                    void* result_dest, CompletionHook hook, void* hook_arg);

  /// Lock round `round`'s slot, claiming it if this is the round's first
  /// contribution. Returns with the slot's `mu` held.
  Round& lock_round(std::uint64_t round);
  /// Record `round` in the sliding completion window. Called under mu_.
  void mark_completed(std::uint64_t round);

  /// Acquire `m`, counting acquisitions that found it held (contention
  /// between node masters is a real hardware effect worth seeing).
  void acquire(hw::L2AtomicMutex& m) const {
    if (!m.try_lock()) {
      obs_.pvars.add(obs::Pvar::CollnetLockContended);
      m.lock();
    }
  }

  const int participants_;
  obs::Domain& obs_;
  std::vector<void*> dest_store_;
  std::vector<Hook> hook_store_;
  std::array<Round, kRoundSlots> slots_;
  // The engine lock: the completion window and slot reclaim. The BG/Q
  // L2-atomic ticket lock, not a std::mutex (no futex syscall when masters
  // collide). Never held while a payload is touched.
  mutable hw::L2AtomicMutex mu_;
  // Sliding completion window: rounds below win_base_ are complete;
  // win_bits_ bit i records completion of round win_base_ + i.
  std::uint64_t win_base_ = 0;
  std::uint64_t win_bits_ = 0;
};

}  // namespace pamix::runtime

// Communication threads (paper §II-D, §III-C).
//
// Commthreads are CNK's special priority-banded pthreads: highest priority
// while performing communication work (cannot be preempted mid-operation),
// lowest otherwise (completely out of the application's way).  PAMI binds
// one commthread per otherwise-idle hardware thread; each owns a set of
// contexts and performs background `advance` on them, which is what turns
// a PAMI_Context_post into asynchronous progress and gives MPI its message
// -rate boost.
//
// The progress loop is an adaptive spin-then-sleep controller
// (see DESIGN.md §13 for the state machine):
//
//   HOT:     sweep non-idle contexts under their locks, CommHighest only
//            across each single advance. Any event re-arms the spin window.
//   SPIN:    after a zero-event sweep, keep polling the cheap idle
//            predicates for PAMIX_COMM_SPIN_US microseconds (0: no window)
//            — a message arriving inside the window is picked up without
//            a wakeup-unit round trip.
//   BACKLOG: a covered, unmuted context that is still not idle after a
//            zero-event sweep (a descriptor stuck behind a full remote
//            FIFO) is polled, not slept on: nothing the worker watches is
//            written when it frees up.
//   SLEEP:   arm one watch per owned context (plus the handoff doorbell)
//            on a shared WaitSlot, re-check the predicates, and park. A
//            wake identifies *which* watch fired; only those contexts
//            advance.
//
// SPIN and BACKLOG poll through one hw::Waiter, the same wait discipline
// as every other blocking loop; commthreads are the only threads that
// sleep. A context whose trylock fails is left to the lock holder:
// Context::unlock re-rings the per-context watch if pollable work remains
// (the doorbell protocol), so sleeping on a contended context cannot
// strand work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/context.h"

namespace pamix::pami {

class CommThreadPool {
 public:
  /// Spawn `count` commthreads for `client`, distributing the client's
  /// contexts round-robin across them. Each commthread claims a hardware
  /// thread slot from the node's map (fails soft: fewer threads spawn if
  /// the node is out of hardware threads). `context_limit` restricts the
  /// pool to the first N contexts (-1 = all): endpoint mode hands the tail
  /// contexts to bound application threads, which advance them lock-free —
  /// a commthread sweeping those would race the owner.
  CommThreadPool(Client& client, int count, int context_limit = -1);
  ~CommThreadPool();

  CommThreadPool(const CommThreadPool&) = delete;
  CommThreadPool& operator=(const CommThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(threads_.size()); }

  /// Latency-sensitive fast wake (paper §III-C): store to the watched
  /// doorbell word of the worker covering `ctx`, so a sleeping commthread
  /// wakes for the handoff immediately instead of on the next queue-tail
  /// snoop.
  void ring_doorbell(const Context* ctx);

  /// Spin window (µs) before a worker arms the wakeup unit; 0 = none.
  int spin_us() const { return spin_us_; }

  // Pool-wide telemetry, aggregated from the per-worker cache-line-aligned
  // counters on every read (workers never write shared cache lines).
  std::uint64_t events_processed() const;  ///< advance events across workers
  std::uint64_t sleeps() const;            ///< wakeup-unit sleeps taken
  std::uint64_t sleep_timeouts() const;    ///< bounded sleeps that expired un-notified
  std::uint64_t fast_wakes() const;        ///< sleeps ended by the doorbell watch
  std::uint64_t spin_iters() const;        ///< zero-event polls inside the spin window

  void stop();

 private:
  /// One worker's hot counters, alone on their cache lines: every sweep
  /// bumps events, so sharing a line between workers (or with pool state)
  /// ping-pongs it across cores.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> sleeps{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> fast_wakes{0};
    std::atomic<std::uint64_t> spin_iters{0};
  };

  struct Worker {
    std::thread thread;
    int hw_thread = -1;
    std::vector<Context*> contexts;
    // Per-context watches: ctx_watches[i] covers contexts[i]'s producer-
    // visible addresses, so a wake names the context that fired. All
    // share `slot` — one sleep covers them all.
    std::vector<hw::WakeupUnit::WatchHandle> ctx_watches;
    hw::WakeupUnit::WatchHandle doorbell_watch = 0;
    hw::WakeupUnit::WaitSlot* slot = nullptr;
    // The word ring_doorbell stores to; watched by doorbell_watch. Own
    // cache line: app threads store here while the worker reads.
    alignas(64) std::atomic<std::uint64_t> doorbell{0};
    // True between arming for sleep and waking. ring_doorbell only pays
    // the store+notify when this is set: an awake worker's next sweep
    // already sees the posted work, and a worker arming concurrently
    // re-checks after setting this flag, so a skipped ring is never lost.
    std::atomic<bool> asleep{false};
    Counters counters;
    // Telemetry domain (sleep/wake pvars + trace ring). The worker thread
    // is the ring's single writer.
    obs::Domain* obs = nullptr;
  };

  void run(Worker& w);
  /// One pass over the worker's contexts: skip idle ones (no lock, no
  /// priority traffic), trylock the rest, advance under a per-context
  /// CommHighest ceiling. Returns events processed.
  std::size_t sweep(Worker& w);
  std::size_t advance_one(Worker& w, Context& ctx);
  /// Some owned context has work and no blocking caller is stealing its
  /// progress (its watch is not muted).
  bool unmuted_work(const Worker& w) const;

  Client& client_;
  int spin_us_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Worker>> threads_;
};

}  // namespace pamix::pami

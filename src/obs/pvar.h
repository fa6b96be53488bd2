// Performance variables (pvars) — the MPI_T-style counter layer.
//
// Every observable unit of the runtime (a context, a commthread worker, a
// node's MU, an MPI rank) registers a *domain* with the process-global
// `Registry` and counts into its own cache-line-aligned `PvarSet`.  The
// hot path is one relaxed fetch-add on a counter nobody else writes; reads
// (snapshots, tables) race benignly and are monotonic, so deltas between
// two snapshots are overflow-free for any realistic run length.
//
// Domains are never destroyed: contexts come and go with their worlds, but
// telemetry must survive teardown so a bench can print tables and export
// traces after the run. A domain is ~2 KB plus its (optional) trace ring.
//
// Build-time gate: `-DPAMIX_OBS=OFF` sets PAMIX_OBS_ENABLED=0, which
// compiles the *tracer* out entirely (see trace_ring.h). The counters stay
// functional in both builds — they back public accessors like
// `Context::sends_initiated()` — and cost one uncontended relaxed add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_ring.h"

#ifndef PAMIX_OBS_ENABLED
#define PAMIX_OBS_ENABLED 1
#endif

namespace pamix::obs {

/// Every counter the runtime exports, one enumerator per name. Adding one
/// means also adding its string to pvar_name() in registry.cpp.
enum class Pvar : std::uint32_t {
  // Context send protocols (counted once per successful send()).
  SendsEager,
  SendsRdzv,
  SendsShm,
  // send() attempts bounced by injection-FIFO exhaustion.
  SendEagain,
  // MU packet engines.
  PacketsInjected,
  PacketsReceived,
  // Context progress.
  AdvanceCalls,
  AdvanceEvents,
  WorkPosts,
  WorkOverflowPosts,
  WorkItemsDrained,
  MessagesDispatched,
  // Rendezvous protocol phases.
  RdzvRtsSent,
  RdzvRtsReceived,
  RdzvPullsStarted,
  RdzvDone,
  // Shared-memory path.
  ShmZeroCopyHits,
  // Commthreads.
  CommWakeups,
  CommSleeps,
  // Context trylock attempts in the commthread sweep that lost to another
  // thread already advancing the context.
  CommLockMisses,
  // Spin-then-sleep controller (comm.*): zero-event sweeps burned inside
  // the spin window before arming the wakeup unit; wakes whose doorbell
  // watch fired (a latency-sensitive handoff store, not a device producer);
  // blocking MPI calls that advanced a commthread-covered context directly
  // instead of waiting on handoff (paper §V progress stealing); and bounded
  // sleeps that expired on the 50 ms deadline with no notify — a nonzero
  // steady-state value means an arm/notify ordering bug.
  CommSpinIters,
  CommFastWakes,
  CommSteals,
  CommSleepTimeouts,
  // Latency-shaped isends (short streak since the last blocking call) that
  // trylocked the bound context and injected inline instead of posting a
  // handoff — the steal-at-send arm of the adaptive handoff policy.
  CommInlineSends,
  // Collective-network engine.
  CollRoundsContributed,
  CollRoundsCompleted,
  // Engine- or round-lock acquisitions that found the L2 mutex held
  // (masters of different nodes contributing concurrently).
  CollnetLockContended,
  // Collective data path (the per-client "coll" domain).
  CollSlices,            // pipeline slices processed (counted at the master)
  CollNetRounds,         // network rounds armed by this task
  CollOverlapBytes,      // local math/copy bytes done while a round was in flight
  CollLocalReduceBytes,  // bytes this task reduced in the shared-address phase
  CollSwDeposits,        // software-collective messages matched/deposited
  // Cut-through rectangle broadcast (Figure 10 streaming relay): chunks
  // forwarded down color trees by this task, the peak number of
  // unacknowledged chunks in flight toward any one child (bounded by the
  // relay window), and silent fallbacks to the regular broadcast on
  // non-rectangle-eligible geometries (scale scenarios assert zero).
  CollRectChunks,
  CollRectInflightPeak,
  CollRectFallbacks,
  // MPI ("pamid") layer.
  MpiIsends,
  MpiIrecvs,
  // MPI matching engine (mpi.match.*): O(1) hashed-bin matches, nodes
  // walked on the ordered-list path, slow-path entries taken because a
  // wildcard receive was outstanding, overtaken arrivals parked, and
  // match-node freelist recycling (a steady-state miss is an allocation).
  MpiMatchBinHits,
  MpiMatchListScans,
  MpiMatchWildcardFallbacks,
  MpiMatchParked,
  MpiMatchPoolHits,
  MpiMatchPoolMisses,
  // Endpoint (multi-VCI) layer (ep.*): thread->context bindings taken,
  // sends/recvs that rode the bound zero-shared fast path, operations that
  // fell back to the hashed/global structures (wildcards, oversize), and
  // arrivals carrying an endpoint index outside the configured range
  // (degraded to the hashed path).
  EpBinds,
  EpFastSends,
  EpFallbackSends,
  EpShardCollisions,
  // Request-pool cross-thread releases: a request freed by a thread whose
  // pool shard differs from the acquiring shard (endpoint-mode churn rides
  // the lock-free reclaim stack instead of the owner freelist).
  ReqCrossThreadReleases,
  // Fast-path buffer pools (core/buffer_pool.h): recycled acquisitions,
  // freelist misses that fell through to the allocator, and oversize
  // requests served straight from the heap.
  AllocPoolHits,
  AllocPoolMisses,
  AllocHeapFallbacks,
  // Active-message RPC layer (src/am/, the per-context "am" domain):
  // traffic counts, aggregation effectiveness (packets coalesced and why
  // each staging buffer flushed), credit flow control (sends parked at
  // zero credits, credits granted back, batched credit-return control
  // packets), the versioned-registration handshake, and deferred handler
  // execution on the work queue.
  AmSends,
  AmCalls,
  AmReplies,
  AmDispatches,
  AmAggPackets,
  AmAggRecords,
  AmAggFlushFull,
  AmAggFlushTimeout,
  AmAggFlushExplicit,
  AmCreditStalls,
  AmCreditsReturned,
  AmCreditCtlPackets,
  AmHellosSent,
  AmVersionMismatches,
  AmDeferredRuns,
  // Timed network backend (runtime::DesNetwork, the per-machine "sim.net"
  // domain): events executed by the discrete-event loop, packets delivered
  // to destination MUs, deliveries re-scheduled after reception-FIFO
  // backpressure, virtual time consumed (nanoseconds — pvars are integers),
  // and the peak packet count observed on any one directed link.
  SimEvents,
  SimPackets,
  SimDeliverRetries,
  SimVirtualNs,
  SimLinkMaxOccupancy,
  // Effective configuration, recorded once at context construction so a
  // run's telemetry shows which limits (config or PAMIX_*_LIMIT env
  // overrides) actually applied.
  ConfigEagerLimit,
  ConfigShmEagerLimit,
  ConfigMuBatch,
  ConfigCollSlice,
  ConfigCollRadix,
  ConfigRectChunk,  // rect-bcast relay chunk bytes; 0 = store-and-forward
  ConfigMpiMatch,  // 1 = hashed bins, 0 = ordered-list fallback
  ConfigEndpoints,   // endpoint contexts configured per task
  ConfigEpFallback,  // 1 = bound endpoints consult the global wildcard list
  ConfigAmCredits,
  ConfigAmAggBytes,
  ConfigAmFlushUs,
  ConfigNetBackend,  // NetBackendKind as int: 0 functional, 1 des
  ConfigSimSeed,
  ConfigCommSpinUs,  // commthread spin window (µs); 0 = no window
  Count,
};

inline constexpr std::size_t kPvarCount = static_cast<std::size_t>(Pvar::Count);

const char* pvar_name(Pvar p);

/// A point-in-time copy of one domain's counters. Plain values: subtract
/// snapshots freely.
struct PvarSnapshot {
  std::array<std::uint64_t, kPvarCount> values{};

  std::uint64_t operator[](Pvar p) const { return values[static_cast<std::size_t>(p)]; }

  PvarSnapshot operator-(const PvarSnapshot& rhs) const {
    PvarSnapshot d;
    for (std::size_t i = 0; i < kPvarCount; ++i) d.values[i] = values[i] - rhs.values[i];
    return d;
  }
  PvarSnapshot& operator+=(const PvarSnapshot& rhs) {
    for (std::size_t i = 0; i < kPvarCount; ++i) values[i] += rhs.values[i];
    return *this;
  }
};

/// One domain's counters. Each cell sits alone on a cache line so two
/// domains (or two counters) never false-share; the owner is the only
/// writer, so relaxed adds suffice and readers see monotonic values.
class PvarSet {
 public:
  void add(Pvar p, std::uint64_t n = 1) {
    cells_[static_cast<std::size_t>(p)].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get(Pvar p) const {
    return cells_[static_cast<std::size_t>(p)].v.load(std::memory_order_relaxed);
  }
  PvarSnapshot snapshot() const {
    PvarSnapshot s;
    for (std::size_t i = 0; i < kPvarCount; ++i) {
      s.values[i] = cells_[i].v.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kPvarCount> cells_{};
};

/// One observable unit: a named PvarSet plus (when tracing is on and the
/// unit has a single advancing writer) a trace ring. `pid`/`tid` become the
/// chrome://tracing process/thread rows.
struct Domain {
  Domain(std::string name_, int pid_, int tid_) : name(std::move(name_)), pid(pid_), tid(tid_) {}

  const std::string name;
  const int pid;
  const int tid;
  PvarSet pvars;
  TraceRing trace;
};

/// Runtime configuration, read once from the environment:
///   PAMIX_OBS            on|1|true  → tracing enabled (counters are always on)
///   PAMIX_TRACE_FILE     path for the chrome://tracing JSON dump
///   PAMIX_TRACE_EVENTS   comma list of categories (send,rdzv,advance,work,
///                        commthread,collective,mpi,am); default: all
///   PAMIX_TRACE_CAPACITY events kept per ring (default 16384, most recent win)
struct ObsConfig {
  bool trace_enabled = false;
  std::string trace_file;
  std::uint32_t event_mask = ~0u;
  std::size_t ring_capacity = 16384;

  static const ObsConfig& get();
};

/// Process-global domain registry. Registration is the cold path (context
/// construction) and takes a mutex; counting never does.
class Registry {
 public:
  static Registry& instance();

  /// Create a new domain. `want_ring` requests a trace ring, honoured only
  /// when tracing is enabled *and* the build has the tracer compiled in;
  /// pass false for domains written by more than one thread concurrently
  /// (rings are single-writer).
  Domain& create(std::string name, int pid = 0, int tid = 0, bool want_ring = true);

  /// Visit every domain ever created, in creation order.
  void for_each(const std::function<void(const Domain&)>& fn) const;

  /// Sum of all domains' counters.
  PvarSnapshot totals() const;

  std::size_t domain_count() const;

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Domain>> domains_;
};

}  // namespace pamix::obs

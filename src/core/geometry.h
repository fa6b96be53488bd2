// Geometry — PAMI's communicator object: a set of tasks, their topology,
// per-node shared state for the shared-address collectives, and (when
// "optimized") a collective-network classroute.
//
// Classroutes are a scarce resource — 16 slots per node, some reserved for
// the system — so applications with many communicators cannot keep them
// all hardware-accelerated.  PAMI exposes optimize/deoptimize so an active
// set of communicators can rotate through the available slots (surfaced to
// MPI programs as MPIX extensions); the registry below implements that
// rotation with LRU reclamation of unpinned routes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/topology.h"
#include "hw/classroute.h"
#include "hw/global_interrupt.h"
#include "hw/l2_atomics.h"

namespace pamix::pami {

class ClientWorld;

/// Node-local two-phase sense barrier over L2-style atomics, used as the
/// intra-node leg of every optimized collective.
class LocalBarrier {
 public:
  explicit LocalBarrier(int participants) : n_(participants) {}

  /// Arrive and spin (with optional progress callback) until all local
  /// participants of this generation arrived.
  void arrive_and_wait(const std::function<void()>& progress = {}) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    hw::Waiter waiter;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (progress) progress();
      waiter.pause();
    }
  }

  int participants() const { return n_; }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// Published pointer + generation, used by masters/roots to expose a
/// buffer to node peers (who read it through the CNK global VA).
struct SharedSlot {
  std::atomic<const void*> ptr{nullptr};
  std::atomic<std::uint64_t> gen{0};

  void publish(const void* p) {
    ptr.store(p, std::memory_order_release);
    gen.fetch_add(1, std::memory_order_acq_rel);
  }
  const void* wait_for(std::uint64_t expected_gen,
                       const std::function<void()>& progress = {}) const {
    hw::Waiter waiter;
    while (gen.load(std::memory_order_acquire) < expected_gen) {
      if (progress) progress();
      waiter.pause();
    }
    return ptr.load(std::memory_order_acquire);
  }
};

class Geometry {
 public:
  Geometry(ClientWorld& world, int id, Topology topology);

  int id() const { return id_; }
  const Topology& topology() const { return topo_; }
  std::size_t size() const { return topo_.size(); }
  int task_of(std::size_t rank) const { return topo_.task(rank); }
  std::optional<std::size_t> rank_of(int task) const { return topo_.rank_of(task); }

  /// Collective-network acceleration state.
  bool optimized() const { return classroute_.load(std::memory_order_acquire) >= 0; }
  int classroute() const { return classroute_.load(std::memory_order_acquire); }

  /// Per-(geometry, node) shared state for the shared-address collectives.
  struct NodeGroup {
    std::vector<int> local_tasks;  // tasks of this geometry on this node
    int master_task = -1;          // lowest task: posts descriptors, polls
    std::unique_ptr<LocalBarrier> barrier;
    SharedSlot root_slot;    // root/source buffer publication
    SharedSlot master_slot;  // master result buffer publication
    std::vector<SharedSlot> contrib;      // per-local-rank send buffers
    std::vector<std::byte> staging;       // local-reduce staging (2 slices)
    std::atomic<std::uint64_t> round{0};  // collective round counter
    std::uint64_t slot_gen = 0;           // expected publication generation
    // Slice-pipeline phase counters (the sense-reversing replacement for
    // per-slice barriers): all monotone across operations; an op captures
    // their values at entry and waits on per-op offsets. The previous
    // op's exit barrier guarantees they are quiescent at capture time.
    std::atomic<std::uint64_t> armed{0};      // network rounds armed by the master
    std::atomic<std::uint64_t> net_done{0};   // network rounds completed (engine hook)
    std::atomic<std::uint64_t> math_done{0};  // per-rank slice-math arrivals (summed)
  };

  bool node_participates(int node) const {
    return groups_.count(node) != 0;
  }
  NodeGroup& node_group(int node) { return *groups_.at(node); }
  /// Local index of `task` within its node group.
  int local_index(int task);

  /// All nodes hosting members of this geometry.
  std::vector<int> nodes() const;

  /// True when every node in the geometry contributes its full local
  /// process set as a contiguous rectangle — the classroute eligibility
  /// condition.
  bool rectangle_eligible() const;

  std::uint64_t last_used() const { return last_used_.load(std::memory_order_relaxed); }
  void touch(std::uint64_t stamp) { last_used_.store(stamp, std::memory_order_relaxed); }

  /// Per-geometry cache for algorithm helper structures (e.g. the
  /// rectangle-broadcast spanning trees): built once by whichever task
  /// arrives first, shared by all.
  template <class T, class Builder>
  std::shared_ptr<T> cached(Builder&& build) {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (!cache_) cache_ = std::static_pointer_cast<void>(build());
    return std::static_pointer_cast<T>(cache_);
  }

 private:
  friend class GeometryRegistry;

  ClientWorld& world_;
  int id_;
  Topology topo_;
  std::atomic<int> classroute_{-1};
  std::map<int, std::unique_ptr<NodeGroup>> groups_;
  std::atomic<std::uint64_t> last_used_{0};
  std::mutex cache_mu_;
  std::shared_ptr<void> cache_;
};

/// Shared registry: geometry creation (collective, keyed), classroute slot
/// allocation with optimize/deoptimize rotation.
class GeometryRegistry {
 public:
  explicit GeometryRegistry(ClientWorld& world);

  /// The pre-built COMM_WORLD geometry (id 0, optimized on classroute 0).
  std::shared_ptr<Geometry> world_geometry() { return world_geom_; }

  /// Collective creation: every participating task calls with the same key
  /// and topology; the first builds, the rest attach.
  std::shared_ptr<Geometry> get_or_create(std::uint64_t key, const Topology& topology);

  /// Try to give `g` a collective-network classroute (MPIX "optimize").
  /// Rectangle-eligible geometries only. May evict the least recently used
  /// unpinned route. Returns true on success.
  bool optimize(Geometry& g);

  /// Release the classroute (MPIX "deoptimize").
  void deoptimize(Geometry& g);

  int routes_in_use() const;

 private:
  ClientWorld& world_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Geometry>> geometries_;
  std::shared_ptr<Geometry> world_geom_;
  std::vector<Geometry*> route_owner_;  // slot -> geometry (nullptr = free)
  int next_geom_id_ = 1;
  std::uint64_t use_stamp_ = 0;
};

}  // namespace pamix::pami

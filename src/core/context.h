// PAMI Context — the unit of messaging parallelism (paper §III-B).
//
// A context is a collection of software communication devices (MU device,
// shared-memory device, work queue) over an exclusive partition of the
// node's hardware: its own injection FIFOs (pinned per destination for
// ordering), its own reception FIFO, its slice of the process's
// shared-memory traffic.  Because nothing is shared between contexts, a
// context needs no internal locks; `advance` is deliberately thread-
// UNSAFE, and thread safety is the caller's job — either pin one thread
// per context, take the context lock, or post work through the lockless
// work queue and let a communication thread run it.
//
// The context itself is a thin composition layer: identity, the dispatch
// table, the work queue, the context lock, and telemetry. Everything that
// moves bytes — protocol selection, packet handling, device progress —
// lives in the proto::ProgressEngine it owns (src/proto/).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <atomic>

#include "core/client.h"
#include "core/types.h"
#include "core/work_queue.h"
#include "hw/l2_atomics.h"
#include "hw/wakeup_unit.h"
#include "obs/pvar.h"
#include "proto/progress_engine.h"

namespace pamix::pami {

class Context {
 public:
  Context(Client& client, int offset);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- Identity -------------------------------------------------------------
  Endpoint endpoint() const { return Endpoint{client_.task(), static_cast<std::int16_t>(offset_)}; }
  int offset() const { return offset_; }
  Client& client() { return client_; }

  // --- Dispatch table -------------------------------------------------------
  Result set_dispatch(DispatchId id, DispatchFn fn);

  // --- Two-sided sends ------------------------------------------------------
  /// Full active-message send: eager below the client's eager limit,
  /// rendezvous (RDMA remote get) above it. Caller owns thread safety.
  /// The lvalue overloads consume `params` only on Success — an Eagain
  /// leaves the (move-only) completion callbacks in place for retry.
  Result send(SendParams& params) { return engine_->send(params); }
  Result send(SendParams&& params) { return engine_->send(params); }

  /// Short-message fast path: header+payload must fit one packet; the
  /// payload is staged immediately so the source buffer is reusable on
  /// return. Returns Eagain only if injection resources stay exhausted.
  Result send_immediate(DispatchId dispatch, Endpoint dest, const void* header,
                        std::size_t header_bytes, const void* data, std::size_t data_bytes);

  // --- One-sided ------------------------------------------------------------
  Result put(PutParams& params) { return engine_->put(params); }
  Result put(PutParams&& params) { return engine_->put(params); }
  Result get(GetParams& params) { return engine_->get(params); }
  Result get(GetParams&& params) { return engine_->get(params); }

  // --- Handoff & progress ---------------------------------------------------
  /// Lockless multi-producer handoff: the work runs on whichever thread
  /// next advances this context (typically a commthread).
  void post(WorkFn fn) { work_queue_.post(std::move(fn)); }

  /// Make progress on every device. NOT thread safe. Returns the number of
  /// events processed (work items, packets, completions).
  std::size_t advance(int iterations = 1) { return engine_->advance(iterations); }

  /// Injection-only progress: drain parked control descriptors and this
  /// context's MU injection FIFOs, nothing else. NOT thread safe (same
  /// single-advancer discipline as advance). Endpoints use it as the
  /// bounded retry step after an Eagain so two endpoints never poll each
  /// other's devices.
  std::size_t advance_injection() { return engine_->advance_injection(); }

  /// Complete a rendezvous that a dispatch handler deferred: pull up to
  /// `bytes` into `buffer` (RDMA remote get) and run `on_complete` when the
  /// data has landed; the sender is acknowledged either way. Must be called
  /// on the thread advancing this context (route through post() otherwise).
  void complete_deferred_rdzv(std::uint64_t handle, void* buffer, std::size_t bytes,
                              EventFn on_complete) {
    engine_->complete_deferred_rdzv(handle, buffer, bytes, std::move(on_complete));
  }

  /// The per-context staging pool feeding eager/RTS streams and shm packet
  /// buffers (telemetry + tests).
  core::BufferPool& stage_pool() { return engine_->stage_pool(); }

  /// Pre-size the MU staging behind sends to `dest` so that `count` sends
  /// of this shape, injected but not yet consumed by the receiver, never
  /// allocate. A protocol that bounds its own messages in flight (an ack
  /// window) calls this to make its steady state allocation-free however
  /// the receiver is scheduled. Same threading rule as send().
  void reserve_sends(Endpoint dest, std::size_t header_bytes, std::size_t data_bytes,
                     std::size_t count) {
    engine_->reserve_sends(dest, header_bytes, data_bytes, count);
  }

  /// Register / unregister an auxiliary progress device (e.g. the
  /// active-message layer's AmDevice) polled after the built-in five.
  /// Caller keeps ownership; must unregister before destroying the device.
  void add_progress_device(proto::Device* dev) { engine_->add_device(dev); }
  void remove_progress_device(proto::Device* dev) { engine_->remove_device(dev); }

  // --- Context lock (PAMI_Context_lock) --------------------------------------
  void lock() { mutex_.lock(); }
  bool trylock() { return mutex_.try_lock(); }
  /// Release the lock; when a commthread watches this context and pollable
  /// work remains, re-ring its watch. This is the unlock half of the
  /// doorbell protocol: a commthread that loses the trylock goes to sleep
  /// (the holder is advancing), and this ring is what guarantees work the
  /// holder left behind — a partial drain, a lock taken for a raw send —
  /// still wakes it without waiting out the bounded-sleep deadline.
  void unlock() {
    const bool watched = comm_watched_.load(std::memory_order_acquire);
    mutex_.unlock();
    // Inside a steal window the ring would be muted anyway and end_steal
    // re-checks on exit, so skip the pollable-work walk — it would run on
    // every pass of the stealer's progress loop.
    if (watched && !comm_wakeup_->muted(comm_watch_) && engine_->has_pollable_work()) {
      comm_wakeup_->notify_watch(comm_watch_);
    }
  }

  // --- Wakeup integration (used by commthreads) ------------------------------
  /// Addresses written when work arrives for this context (the work-queue
  /// tail, the reception FIFO's delivery counter, the shm queue tail) as
  /// (base, length) ranges — this context's WAC register image.
  std::vector<std::pair<const void*, std::size_t>> wakeup_ranges() const {
    return engine_->wakeup_ranges();
  }

  /// Register the watching commthread's per-context watch for the unlock
  /// doorbell above. The watch (and the unit) outlive any watcher, so a
  /// ring racing clear_comm_watch() at pool shutdown lands on a valid but
  /// unattended watch.
  void set_comm_watch(hw::WakeupUnit* unit, hw::WakeupUnit::WatchHandle h) {
    comm_wakeup_ = unit;
    comm_watch_ = h;
    comm_watched_.store(true, std::memory_order_release);
  }
  void clear_comm_watch() { comm_watched_.store(false, std::memory_order_release); }

  /// Bracket a blocking caller's progress-steal window (paper §V): while
  /// an app thread is driving this context's progress itself, mute the
  /// commthread watch so every store it is about to consume anyway does
  /// not also pay a futex wake into a guaranteed trylock loss. end_steal
  /// re-rings the watch if the stealer left pollable work behind, so the
  /// mute window cannot strand anything. Nestable across threads (the
  /// mute is counted in the wakeup unit); each window keeps its own epoch
  /// snapshot, returned by begin and passed back to end.
  ///
  /// Ordering: the snapshot is taken BEFORE muting, so a store racing the
  /// mute either notifies normally (pre-mute) or lands after the snapshot
  /// and is visible as an epoch change at end_steal — never both missed.
  std::uint64_t begin_steal() {
    if (!comm_watched_.load(std::memory_order_acquire)) return 0;
    const std::uint64_t epoch = comm_wakeup_->arm(comm_watch_);
    comm_wakeup_->mute(comm_watch_);
    return epoch;
  }
  void end_steal(std::uint64_t begin_epoch) {
    if (!comm_watched_.load(std::memory_order_acquire)) return;
    comm_wakeup_->unmute(comm_watch_);
    // Nothing fired while muted → nothing a sleeping commthread missed;
    // skip the engine walk (it would run once per blocking call per
    // context). Otherwise re-ring only if work actually remains.
    if (comm_wakeup_->arm(comm_watch_) == begin_epoch) return;
    if (engine_->has_pollable_work()) comm_wakeup_->notify_watch(comm_watch_);
  }

  WorkQueue& work_queue() { return work_queue_; }

  /// Cheap "probably nothing to do" check used by commthreads to decide
  /// whether to sleep on the wakeup unit. May return false negatives under
  /// concurrency; the arm/recheck/wait discipline closes the race.
  bool idle() const { return !engine_->has_pollable_work(); }

  // --- Introspection / stats -------------------------------------------------
  // The historical counters are thin views over the obs pvar registry:
  // sends_initiated keeps its original semantics (one tick per send() call,
  // successful or Eagain-bounced).
  std::uint64_t sends_initiated() const { return engine_->sends_initiated(); }
  std::uint64_t messages_dispatched() const {
    return obs_.pvars.get(obs::Pvar::MessagesDispatched);
  }

  /// This context's telemetry domain (pvar counters + trace ring).
  obs::Domain& obs() { return obs_; }
  const obs::Domain& obs() const { return obs_; }

  /// Telemetry domain of one protocol ("<ctx>.eager" / ".rdzv" / ".shm").
  const obs::Domain& proto_obs(proto::ProtocolKind kind) const {
    return engine_->protocol_obs(kind);
  }

  /// Anything outstanding: pollable device work, origin-side send states,
  /// reassembly and deferred-rendezvous tables. Superset of !idle(),
  /// derived from the same engine predicates so the two cannot drift.
  bool has_pending_state() const { return engine_->has_pending_state(); }

 private:
  friend class Client;

  Client& client_;
  int offset_;
  WorkQueue work_queue_;
  hw::L2AtomicMutex mutex_;
  std::vector<DispatchFn> dispatch_;
  obs::Domain& obs_;  // registry-owned; outlives the context

  // Unlock-doorbell registration (set by the commthread pool).
  std::atomic<bool> comm_watched_{false};
  hw::WakeupUnit* comm_wakeup_ = nullptr;
  hw::WakeupUnit::WatchHandle comm_watch_ = 0;

  // Engine last: it snapshots references to the members above.
  std::unique_ptr<proto::ProgressEngine> engine_;
};

}  // namespace pamix::pami

// proto::ProgressEngine — the per-context composition of devices and
// protocols (paper §III-B).
//
// The engine is what makes a Context "a collection of software
// communication devices" instead of a monolith: at construction it claims
// the context's exclusive FIFO partition from the client's plan, builds
// the three point-to-point protocols (MU eager, MU rendezvous, shm), and
// registers the five progress devices in their drain order — work queue,
// deferred control queue, MU (injection + reception), shm queue, pending
// reception counters. `advance()` just iterates registered devices;
// `send()` routes by destination locality and size to a protocol. Nothing
// here takes a lock: the engine inherits the context's single-advancer
// discipline wholesale.
//
// The engine is also the single source of truth for "is anything
// outstanding": `has_pollable_work()` (the commthread sleep decision) and
// `has_pending_state()` (the drain check) are both derived from the same
// per-device / per-protocol predicates, so the two can never diverge the
// way the old Context::idle() / has_pending_state() pair did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/buffer_pool.h"
#include "core/types.h"
#include "hw/mu.h"
#include "obs/pvar.h"
#include "proto/device.h"
#include "proto/protocol.h"

namespace pamix::runtime {
class Machine;
}

namespace pamix::pami {
class Client;
class Context;
class WorkQueue;
struct ClientConfig;
struct ShmPacket;
}  // namespace pamix::pami

namespace pamix::proto {

class ControlDevice;
class CounterDevice;
class EagerProtocol;
class MuDevice;
class RdzvProtocol;
class ShmProtocol;
class ShmQueueDevice;
class WorkQueueDevice;

/// Origin-side completion handles, shared by the protocols that complete
/// through a DONE/ack wire message (MU rendezvous, eager-with-ack). One
/// table per context because the DONE packet carries a single handle
/// namespace; a live count makes emptiness O(1) (the slot vector itself
/// never shrinks — slots recycle).
class SendStateTable {
 public:
  struct Entry {
    pami::EventFn on_local_done;
    pami::EventFn on_remote_done;
    bool in_use = false;
  };

  std::uint32_t alloc(pami::EventFn on_local_done, pami::EventFn on_remote_done);
  /// Roll back an allocation whose send bounced with Eagain. Returns the
  /// entry so the caller can restore the (move-only) callbacks into its
  /// retryable SendParams.
  Entry release(std::uint32_t handle);
  /// Fire the callbacks and recycle the slot.
  void complete(std::uint32_t handle, bool remote_done, obs::Domain& trace_obs);
  bool empty() const { return live_ == 0; }

 private:
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
};

class ProgressEngine {
 public:
  ProgressEngine(pami::Context& ctx, pami::Client& client, int offset,
                 pami::WorkQueue& work_queue, std::vector<pami::DispatchFn>& dispatch,
                 obs::Domain& ctx_obs);
  ~ProgressEngine();

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  // --- Context-facing API ---------------------------------------------------
  // Params are taken by lvalue reference and consumed only on Success: an
  // Eagain leaves the (move-only) completion callbacks in place so the
  // caller's retry loop can re-submit the same SendParams. The rvalue
  // overloads serve one-shot callers.
  pami::Result send(pami::SendParams& params);
  pami::Result put(pami::PutParams& params);
  pami::Result get(pami::GetParams& params);
  pami::Result send(pami::SendParams&& params) { return send(params); }
  pami::Result put(pami::PutParams&& params) { return put(params); }
  pami::Result get(pami::GetParams&& params) { return get(params); }
  std::size_t advance(int iterations);
  /// Injection-credit drain: retire parked control descriptors and advance
  /// the MU injection engines over this context's FIFOs only — no
  /// reception, no work queue, no shm. Two endpoints calling this
  /// concurrently touch disjoint FIFO sets; it is the bounded-latency
  /// retry step after a send_immediate Eagain on a bound endpoint.
  std::size_t advance_injection();
  void complete_deferred_rdzv(std::uint64_t handle, void* buffer, std::size_t bytes,
                              pami::EventFn&& on_complete);

  /// Producer-visible addresses of every wakeup-backed device as (base,
  /// length) ranges — the WAC register image of this one context.
  /// Commthreads program one watch per context from
  /// this, so a wakeup-unit hit names the context that fired instead of
  /// forcing a sweep of every covered context.
  std::vector<std::pair<const void*, std::size_t>> wakeup_ranges() const;

  /// Any device has something for poll() to do right now (including
  /// poll-only devices with outstanding completions). `!has_pollable_work()`
  /// is the commthread sleep predicate: everything else outstanding is
  /// completed by an event that writes a watched wakeup address.
  bool has_pollable_work() const;

  /// Anything outstanding at all: pollable work, device bookkeeping,
  /// origin-side send states, protocol reassembly/deferred tables. The
  /// drain-check superset of has_pollable_work(), derived from the same
  /// per-device/per-protocol predicates.
  bool has_pending_state() const;

  /// Historical Context counter semantics: one tick per send() call,
  /// successful or Eagain-bounced, aggregated across protocol domains.
  std::uint64_t sends_initiated() const;

  /// Telemetry domain of one protocol ("<ctx>.eager" / ".rdzv" / ".shm").
  const obs::Domain& protocol_obs(ProtocolKind kind) const;

  // --- Services used by protocols and devices -------------------------------
  pami::Context& context() { return ctx_; }
  pami::Client& client() { return client_; }
  runtime::Machine& machine() { return machine_; }
  const pami::ClientConfig& config() const;
  int offset() const { return offset_; }
  pami::Endpoint endpoint() const;
  obs::Domain& ctx_obs() { return obs_; }

  /// Dispatch handler lookup; null when nothing is registered for `id`.
  const pami::DispatchFn& dispatch(pami::DispatchId id) const {
    return dispatch_[static_cast<std::size_t>(id)];
  }

  /// See pami::Context::reserve_sends. Intra-node sends stage nothing in
  /// the MU.
  void reserve_sends(pami::Endpoint dest, std::size_t header_bytes, std::size_t data_bytes,
                     std::size_t count);

  /// Static per-destination FIFO pinning: all traffic to one node uses one
  /// FIFO, which with deterministic routing preserves ordering (§III-E).
  int inj_fifo_for(int dest_node) const;
  /// The one way a descriptor enters this context's injection FIFOs (it
  /// keeps the MU device's backlog mask exact). Consumes `desc` only on
  /// success (returns false with the caller's descriptor intact when the
  /// FIFO stays saturated).
  bool push_descriptor(int fifo, hw::MuDescriptor&& desc);
  /// Park a must-not-drop control descriptor (DONE, ack, remote get) on
  /// the control device when the injection FIFO is saturated.
  void push_control(int dest_node, hw::MuDescriptor&& desc);
  /// Fire `on_done`, then `then`, when the counter drains. Two slots so
  /// protocols can chain a user callback and their own completion step
  /// without nesting one inline callable inside another's capture.
  void watch_counter(std::unique_ptr<hw::MuReceptionCounter> counter, pami::EventFn on_done,
                     pami::EventFn then = pami::EventFn{});

  /// Pooled MU completion primitives, so steady-state rendezvous pulls and
  /// one-sided RDMA never touch the heap: reception counters recycle
  /// through the counter device (their completion point); remote-get
  /// payload descriptors through a use_count-gated cache — the MU drops
  /// its reference when the remote get retires, so a cached entry with
  /// use_count() == 1 is free for reuse.
  std::unique_ptr<hw::MuReceptionCounter> acquire_counter();
  void release_counter(std::unique_ptr<hw::MuReceptionCounter> counter);
  std::shared_ptr<hw::MuDescriptor> acquire_remote_desc();

  /// Register an auxiliary progress device (e.g. the active-message layer's
  /// AmDevice) behind the built-in five in drain order. The caller keeps
  /// ownership and must remove_device() before the device is destroyed.
  /// Cold path: call from the context-owning thread only.
  void add_device(Device* dev);
  void remove_device(Device* dev);

  /// Per-context staging pool for eager/RTS streams and shm packet
  /// buffers. Single-consumer: acquire only on this context's advancing
  /// thread (buffers release from anywhere).
  core::BufferPool& stage_pool() { return stage_pool_; }

  std::uint64_t next_msg_seq() { return next_msg_seq_++; }
  void unwind_msg_seq() { --next_msg_seq_; }
  std::uint64_t alloc_defer_handle() { return next_defer_handle_++; }

  SendStateTable& send_states() { return send_states_; }

  /// Emit the DONE/ack control message completing origin-side send state
  /// `handle` at `origin` (rides shm intra-node, a control packet else).
  void send_done(pami::Endpoint origin, std::uint32_t handle);

  /// Translate a peer process's buffer address through the CNK global VA.
  const std::byte* peer_va(int task, const void* addr, std::size_t bytes) const;

  // --- Incoming packet routing (called by devices) --------------------------
  void on_mu_packet(hw::MuPacket&& pkt);
  void on_shm_packet(pami::ShmPacket&& pkt);

 private:
  pami::Context& ctx_;
  pami::Client& client_;
  runtime::Machine& machine_;
  int offset_;
  std::vector<pami::DispatchFn>& dispatch_;
  obs::Domain& obs_;

  std::uint64_t next_msg_seq_ = 1;
  std::uint64_t next_defer_handle_ = 1;
  SendStateTable send_states_;
  core::BufferPool stage_pool_;
  std::vector<std::shared_ptr<hw::MuDescriptor>> remote_desc_cache_;

  std::unique_ptr<EagerProtocol> eager_;
  std::unique_ptr<RdzvProtocol> rdzv_;
  std::unique_ptr<ShmProtocol> shm_;
  std::vector<Protocol*> protocols_;  // routing/predicate order

  std::unique_ptr<WorkQueueDevice> work_dev_;
  std::unique_ptr<ControlDevice> control_dev_;
  std::unique_ptr<MuDevice> mu_dev_;
  std::unique_ptr<ShmQueueDevice> shm_dev_;
  std::unique_ptr<CounterDevice> counter_dev_;
  std::vector<Device*> devices_;  // drain order
};

}  // namespace pamix::proto

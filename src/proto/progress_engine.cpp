#include "proto/progress_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/client.h"
#include "core/work_queue.h"
#include "obs/clock.h"
#include "proto/devices.h"
#include "proto/eager.h"
#include "proto/rendezvous.h"
#include "proto/shm.h"
#include "proto/wire.h"
#include "runtime/machine.h"

namespace pamix::proto {

// --------------------------------------------------------- SendStateTable --

std::uint32_t SendStateTable::alloc(pami::EventFn on_local_done, pami::EventFn on_remote_done) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].in_use) {
      entries_[i] = Entry{std::move(on_local_done), std::move(on_remote_done), true};
      ++live_;
      return static_cast<std::uint32_t>(i);
    }
  }
  entries_.push_back(Entry{std::move(on_local_done), std::move(on_remote_done), true});
  ++live_;
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

SendStateTable::Entry SendStateTable::release(std::uint32_t handle) {
  assert(handle < entries_.size() && entries_[handle].in_use);
  Entry e = std::move(entries_[handle]);
  entries_[handle] = Entry{};
  --live_;
  return e;
}

void SendStateTable::complete(std::uint32_t handle, bool remote_done, obs::Domain& trace_obs) {
  assert(handle < entries_.size() && entries_[handle].in_use);
  Entry e = std::move(entries_[handle]);
  entries_[handle] = Entry{};
  --live_;
  trace_obs.trace.record(obs::TraceEv::SendComplete, handle);
  if (e.on_local_done) e.on_local_done();
  if (remote_done && e.on_remote_done) e.on_remote_done();
}

// --------------------------------------------------------- ProgressEngine --

ProgressEngine::ProgressEngine(pami::Context& ctx, pami::Client& client, int offset,
                               pami::WorkQueue& work_queue,
                               std::vector<pami::DispatchFn>& dispatch, obs::Domain& ctx_obs)
    : ctx_(ctx),
      client_(client),
      machine_(client.machine()),
      offset_(offset),
      dispatch_(dispatch),
      obs_(ctx_obs),
      stage_pool_(&ctx_obs.pvars) {
  // Claim this context's exclusive slice of the client's FIFO plan: a
  // contiguous run of injection FIFOs (at most the MU device's mask width)
  // and one reception FIFO.
  const pami::FifoPlan& plan = client_.world().plan();
  const int first_inj = plan.inj_fifo(client_.local_proc(), offset_, 0);
  const int inj_count = std::min(plan.sends_per_context(), MuDevice::kMaxInjFifos);
  const int rec_fifo = plan.rec_fifo(client_.local_proc(), offset_);

  // One pvar domain per protocol, children of the context's domain name.
  // No trace rings: send paths may run on application threads while a
  // commthread advances, and rings are single-writer — protocol traces go
  // to the context ring exactly as before the proto/ split.
  obs::Registry& reg = obs::Registry::instance();
  const pami::ClientConfig& cfg = client_.world().config();
  obs::Domain& eager_obs =
      reg.create(obs_.name + ".eager", obs_.pid, obs_.tid, /*want_ring=*/false);
  obs::Domain& rdzv_obs = reg.create(obs_.name + ".rdzv", obs_.pid, obs_.tid, false);
  obs::Domain& shm_obs = reg.create(obs_.name + ".shm", obs_.pid, obs_.tid, false);
  // Effective protocol-selection thresholds, pvar-visible so a run's
  // telemetry records which limits (config or PAMIX_*_LIMIT env) applied.
  eager_obs.pvars.add(obs::Pvar::ConfigEagerLimit, cfg.eager_limit);
  shm_obs.pvars.add(obs::Pvar::ConfigShmEagerLimit, cfg.shm_eager_limit);
  obs_.pvars.add(obs::Pvar::ConfigMuBatch, static_cast<std::uint64_t>(cfg.mu_batch));

  eager_ = std::make_unique<EagerProtocol>(*this, eager_obs);
  rdzv_ = std::make_unique<RdzvProtocol>(*this, rdzv_obs);
  shm_ = std::make_unique<ShmProtocol>(*this, shm_obs);
  protocols_ = {eager_.get(), rdzv_.get(), shm_.get()};

  hw::MessagingUnit& mu = client_.node().mu();
  work_dev_ = std::make_unique<WorkQueueDevice>(work_queue, obs_);
  control_dev_ = std::make_unique<ControlDevice>(*this);
  mu_dev_ = std::make_unique<MuDevice>(*this, mu, first_inj, inj_count, rec_fifo, obs_,
                                       cfg.mu_batch);
  shm_dev_ = std::make_unique<ShmQueueDevice>(*this, client_.shm_device(),
                                              static_cast<std::int16_t>(offset_));
  counter_dev_ =
      std::make_unique<CounterDevice>(static_cast<std::size_t>(std::max(cfg.mu_batch, 1)));
  // Drain order: posted work first (it may inject), then parked control
  // packets (before new sends compete for FIFO space), then the MU
  // engines and reception, the shm slice, and finally RDMA completions.
  devices_ = {work_dev_.get(), control_dev_.get(), mu_dev_.get(), shm_dev_.get(),
              counter_dev_.get()};
}

ProgressEngine::~ProgressEngine() = default;

const pami::ClientConfig& ProgressEngine::config() const { return client_.world().config(); }

pami::Endpoint ProgressEngine::endpoint() const {
  return pami::Endpoint{client_.task(), static_cast<std::int16_t>(offset_)};
}

int ProgressEngine::inj_fifo_for(int dest_node) const { return mu_dev_->fifo_for(dest_node); }

bool ProgressEngine::push_descriptor(int fifo, hw::MuDescriptor&& desc) {
  return mu_dev_->push(fifo, std::move(desc));
}

void ProgressEngine::push_control(int dest_node, hw::MuDescriptor&& desc) {
  if (control_dev_->idle() && push_descriptor(inj_fifo_for(dest_node), std::move(desc))) return;
  control_dev_->park(dest_node, std::move(desc));
}

void ProgressEngine::watch_counter(std::unique_ptr<hw::MuReceptionCounter> counter,
                                   pami::EventFn on_done, pami::EventFn then) {
  counter_dev_->watch(std::move(counter), std::move(on_done), std::move(then));
}

std::unique_ptr<hw::MuReceptionCounter> ProgressEngine::acquire_counter() {
  return counter_dev_->acquire();
}

void ProgressEngine::release_counter(std::unique_ptr<hw::MuReceptionCounter> counter) {
  counter_dev_->release(std::move(counter));
}

std::shared_ptr<hw::MuDescriptor> ProgressEngine::acquire_remote_desc() {
  for (auto& d : remote_desc_cache_) {
    if (d.use_count() == 1) {
      *d = hw::MuDescriptor{};  // clear stale fields before reuse
      return d;
    }
  }
  remote_desc_cache_.push_back(std::make_shared<hw::MuDescriptor>());
  return remote_desc_cache_.back();
}

const std::byte* ProgressEngine::peer_va(int task, const void* addr, std::size_t bytes) const {
  return client_.node().global_va().translate(machine_.local_index_of_task(task), addr, bytes);
}

// ------------------------------------------------------------------ sends --

pami::Result ProgressEngine::send(pami::SendParams& params) {
  const int dest_node = machine_.node_of_task(params.dest.task);
  pami::Result r;
  if (dest_node == machine_.node_of_task(client_.task())) {
    r = shm_->send(params);
  } else {
    // Common descriptor: addressing, identity, and stream sequence; the
    // chosen protocol fills flags and payload.
    const int dest_proc = machine_.local_index_of_task(params.dest.task);
    hw::MuDescriptor desc;
    desc.type = hw::MuPacketType::MemoryFifo;
    desc.routing = hw::MuRouting::Deterministic;
    desc.hints = params.hints;
    desc.dest_node = dest_node;
    desc.rec_fifo = client_.world().plan().rec_fifo(dest_proc, params.dest.context);
    desc.sw.dispatch_id = params.dispatch;
    desc.sw.dest_context = static_cast<std::uint16_t>(params.dest.context);
    desc.sw.origin_task = static_cast<std::uint32_t>(client_.task());
    desc.sw.origin_context = static_cast<std::uint16_t>(offset_);
    desc.sw.header_bytes = static_cast<std::uint16_t>(params.header_bytes);
    desc.sw.msg_seq = next_msg_seq();
    const int fifo = inj_fifo_for(dest_node);
    r = params.data_bytes <= config().eager_limit ? eager_->send(params, std::move(desc), fifo)
                                                  : rdzv_->send(params, std::move(desc), fifo);
    if (r != pami::Result::Success) unwind_msg_seq();  // nothing was injected
  }
  if (r == pami::Result::Eagain) obs_.pvars.add(obs::Pvar::SendEagain);
  return r;
}

void ProgressEngine::reserve_sends(pami::Endpoint dest, std::size_t header_bytes,
                                   std::size_t data_bytes, std::size_t count) {
  const int dest_node = machine_.node_of_task(dest.task);
  if (dest_node == machine_.node_of_task(client_.task())) return;
  // The stream send() would stage: eager carries the data, rendezvous an RTS.
  const std::size_t stream =
      header_bytes + (data_bytes <= config().eager_limit ? data_bytes : sizeof(RtsInfo));
  client_.node().mu().reserve_staging(inj_fifo_for(dest_node), stream, count);
}

// -------------------------------------------------------------- one-sided --

pami::Result ProgressEngine::put(pami::PutParams& params) {
  const int dest_node = machine_.node_of_task(params.dest.task);
  if (dest_node == machine_.node_of_task(client_.task())) {
    // Intra-node: global-VA copy, as PAMI's shared-address path does.
    const std::byte* dst = peer_va(params.dest.task, params.remote_addr, params.bytes);
    if (dst == nullptr) return pami::Result::Invalid;
    std::memcpy(const_cast<std::byte*>(dst), params.local_addr, params.bytes);
    if (params.on_local_done) params.on_local_done();
    if (params.on_remote_done) params.on_remote_done();
    return pami::Result::Success;
  }
  hw::MuDescriptor desc;
  desc.type = hw::MuPacketType::DirectPut;
  desc.routing = hw::MuRouting::Dynamic;
  desc.dest_node = dest_node;
  desc.payload = static_cast<const std::byte*>(params.local_addr);
  desc.payload_bytes = params.bytes;
  desc.put_dest = static_cast<std::byte*>(params.remote_addr);
  auto counter = acquire_counter();
  counter->prime(static_cast<std::int64_t>(params.bytes));
  desc.rec_counter = counter.get();
  desc.on_injected = std::move(params.on_local_done);
  if (!push_descriptor(inj_fifo_for(dest_node), std::move(desc))) {
    // Restore the callback so the caller's PutParams stay retryable.
    params.on_local_done = std::move(desc.on_injected);
    release_counter(std::move(counter));
    return pami::Result::Eagain;
  }
  watch_counter(std::move(counter), std::move(params.on_remote_done));
  return pami::Result::Success;
}

pami::Result ProgressEngine::get(pami::GetParams& params) {
  const int dest_node = machine_.node_of_task(params.dest.task);
  if (dest_node == machine_.node_of_task(client_.task())) {
    const std::byte* src = peer_va(params.dest.task, params.remote_addr, params.bytes);
    if (src == nullptr) return pami::Result::Invalid;
    std::memcpy(params.local_addr, src, params.bytes);
    if (params.on_done) params.on_done();
    return pami::Result::Success;
  }
  auto counter = acquire_counter();
  counter->prime(static_cast<std::int64_t>(params.bytes));

  auto payload_desc = acquire_remote_desc();
  payload_desc->type = hw::MuPacketType::DirectPut;
  payload_desc->routing = hw::MuRouting::Dynamic;
  payload_desc->dest_node = machine_.node_of_task(client_.task());
  payload_desc->payload = static_cast<const std::byte*>(params.remote_addr);
  payload_desc->payload_bytes = params.bytes;
  payload_desc->put_dest = static_cast<std::byte*>(params.local_addr);
  payload_desc->rec_counter = counter.get();

  hw::MuDescriptor desc;
  desc.type = hw::MuPacketType::RemoteGet;
  desc.routing = hw::MuRouting::Deterministic;
  desc.dest_node = dest_node;
  desc.remote_payload = std::move(payload_desc);
  if (!push_descriptor(inj_fifo_for(dest_node), std::move(desc))) {
    release_counter(std::move(counter));
    return pami::Result::Eagain;
  }
  watch_counter(std::move(counter), std::move(params.on_done));
  return pami::Result::Success;
}

// ---------------------------------------------------------------- advance --

std::size_t ProgressEngine::advance_injection() {
  // Parked control descriptors first (they compete for the same FIFO
  // slots the retried send needs), then the injection engines.
  std::size_t events = control_dev_->poll();
  events += mu_dev_->poll_injection();
  if (events > 0) obs_.pvars.add(obs::Pvar::AdvanceEvents, events);
  return events;
}

std::size_t ProgressEngine::advance(int iterations) {
  obs_.pvars.add(obs::Pvar::AdvanceCalls);
  const bool tracing = obs_.trace.enabled();
  const std::uint64_t t0 = tracing ? obs::now_ns() : 0;
  // Pump the transport first: a timed backend (PAMIX_NET=des) delivers due
  // packets — and may advance virtual time — so the device polls below see
  // them this call. The functional backend's hook is a no-op; delivered
  // packets are counted by the MU device when consumed, not here.
  machine_.backend().progress();
  std::size_t events = 0;
  for (int it = 0; it < iterations; ++it) {
    // Index-based: a handler running inside poll() may add_device() (e.g.
    // constructing an am::Engine); appending mid-pass is safe, removal is
    // deferred to quiescence by contract.
    for (std::size_t i = 0; i < devices_.size(); ++i) events += devices_[i]->poll();
  }
  if (events > 0) {
    obs_.pvars.add(obs::Pvar::AdvanceEvents, events);
    if (tracing) {
      obs_.trace.record_span(obs::TraceEv::AdvanceBatch, t0, static_cast<std::uint32_t>(events));
    }
  }
  return events;
}

void ProgressEngine::add_device(Device* dev) {
  assert(dev != nullptr);
  devices_.push_back(dev);
}

void ProgressEngine::remove_device(Device* dev) {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i] == dev) {
      devices_.erase(devices_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::vector<std::pair<const void*, std::size_t>> ProgressEngine::wakeup_ranges() const {
  std::vector<std::pair<const void*, std::size_t>> ranges;
  for (const Device* d : devices_) {
    // Every wakeup-backed device publishes a 64-bit producer counter (work
    // -queue tail, reception delivered-count, shm tail): one word per range.
    if (const void* a = d->wakeup_address(); a != nullptr) {
      ranges.emplace_back(a, sizeof(std::uint64_t));
    }
  }
  return ranges;
}

bool ProgressEngine::has_pollable_work() const {
  for (const Device* d : devices_) {
    if (!d->idle()) return true;
  }
  return false;
}

bool ProgressEngine::has_pending_state() const {
  if (has_pollable_work()) return true;
  for (const Device* d : devices_) {
    if (d->has_pending_state()) return true;
  }
  if (!send_states_.empty()) return true;
  for (const Protocol* p : protocols_) {
    if (p->has_pending_state()) return true;
  }
  // Packets still in flight inside a timed backend count as pending: a
  // drain loop must keep advancing (each advance pumps the backend) until
  // they deliver. Always 0 on the functional backend.
  if (machine_.backend().in_flight() > 0) return true;
  return false;
}

std::uint64_t ProgressEngine::sends_initiated() const {
  return eager_->obs().pvars.get(obs::Pvar::SendsEager) +
         rdzv_->obs().pvars.get(obs::Pvar::SendsRdzv) +
         shm_->obs().pvars.get(obs::Pvar::SendsShm) + obs_.pvars.get(obs::Pvar::SendEagain);
}

const obs::Domain& ProgressEngine::protocol_obs(ProtocolKind kind) const {
  for (Protocol* p : protocols_) {
    if (p->kind() == kind) return p->obs();
  }
  assert(false && "unknown protocol kind");
  return obs_;
}

// ---------------------------------------------------------------- receive --

void ProgressEngine::send_done(pami::Endpoint origin, std::uint32_t handle) {
  if (machine_.node_of_task(origin.task) == machine_.node_of_task(client_.task())) {
    // Intra-node DONE rides the shared-memory queue.
    pami::ShmPacket done;
    done.dest_context = origin.context;
    done.origin = endpoint();
    done.flags = kFlagRdzvDone;
    done.metadata = handle;
    client_.world().shm_device(origin.task).queue().push(std::move(done));
    return;
  }
  const int origin_node = machine_.node_of_task(origin.task);
  hw::MuDescriptor done;
  done.type = hw::MuPacketType::MemoryFifo;
  done.dest_node = origin_node;
  done.rec_fifo =
      client_.world().plan().rec_fifo(machine_.local_index_of_task(origin.task), origin.context);
  done.sw.flags = kFlagRdzvDone;
  done.sw.metadata = handle;
  done.sw.origin_task = static_cast<std::uint32_t>(client_.task());
  done.sw.origin_context = static_cast<std::uint16_t>(offset_);
  push_control(origin_node, std::move(done));
}

void ProgressEngine::on_mu_packet(hw::MuPacket&& pkt) {
  assert(pkt.type == hw::MuPacketType::MemoryFifo);
  const hw::MuSoftwareHeader& sw = pkt.sw;
  if (sw.flags & kFlagRdzvDone) {
    obs_.pvars.add(obs::Pvar::RdzvDone);
    obs_.trace.record(obs::TraceEv::RdzvDone, static_cast<std::uint32_t>(sw.metadata));
    send_states_.complete(static_cast<std::uint32_t>(sw.metadata), /*remote_done=*/true, obs_);
    return;
  }
  if (sw.flags & kFlagRts) {
    rdzv_->handle_rts(std::move(pkt));
    return;
  }
  eager_->handle_packet(std::move(pkt));
}

void ProgressEngine::on_shm_packet(pami::ShmPacket&& pkt) {
  if (pkt.flags & kFlagRdzvDone) {
    obs_.pvars.add(obs::Pvar::RdzvDone);
    obs_.trace.record(obs::TraceEv::RdzvDone, static_cast<std::uint32_t>(pkt.metadata));
    send_states_.complete(static_cast<std::uint32_t>(pkt.metadata), /*remote_done=*/true, obs_);
    return;
  }
  shm_->handle_packet(std::move(pkt));
}

void ProgressEngine::complete_deferred_rdzv(std::uint64_t handle, void* buffer,
                                            std::size_t bytes, pami::EventFn&& on_complete) {
  for (Protocol* p : protocols_) {
    if (p->complete_deferred(handle, buffer, bytes, on_complete)) return;
  }
  assert(false && "unknown deferred rendezvous handle");
}

}  // namespace pamix::proto

#include "proto/rendezvous.h"

#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include "proto/progress_engine.h"
#include "runtime/machine.h"

namespace pamix::proto {

pami::Result RdzvProtocol::send(pami::SendParams& params, hw::MuDescriptor desc, int fifo) {
  // The RTS is one packet: the user header followed by RtsInfo. A header
  // too large for that is refused in every build, before a send-state
  // slot or a stage buffer is taken (the caller unwinds the sequence).
  const std::size_t header_bytes = params.header_bytes;
  if (header_bytes > hw::kMaxPacketPayload - sizeof(RtsInfo)) return pami::Result::Invalid;
  RtsInfo rts;
  rts.src_addr = reinterpret_cast<std::uint64_t>(params.data);
  rts.bytes = params.data_bytes;
  rts.handle =
      engine_.send_states().alloc(std::move(params.on_local_done), std::move(params.on_remote_done));

  core::Buf stream = engine_.stage_pool().acquire(header_bytes + sizeof(RtsInfo));
  if (header_bytes > 0) std::memcpy(stream.data(), params.header, header_bytes);
  std::memcpy(stream.data() + header_bytes, &rts, sizeof(RtsInfo));

  desc.sw.flags = kFlagRts;
  desc.sw.msg_bytes = static_cast<std::uint32_t>(stream.size());
  desc.payload = stream.data();
  desc.payload_bytes = stream.size();
  desc.staged = std::move(stream);
  if (!engine_.push_descriptor(fifo, std::move(desc))) {
    // Roll back and restore both callbacks so the caller's SendParams stay
    // retryable.
    SendStateTable::Entry e = engine_.send_states().release(rts.handle);
    params.on_local_done = std::move(e.on_local_done);
    params.on_remote_done = std::move(e.on_remote_done);
    return pami::Result::Eagain;
  }
  obs_.pvars.add(obs::Pvar::SendsRdzv);
  obs_.pvars.add(obs::Pvar::RdzvRtsSent);
  engine_.ctx_obs().trace.record(obs::TraceEv::SendRdzvBegin,
                                 static_cast<std::uint32_t>(params.data_bytes));
  return pami::Result::Success;
}

void RdzvProtocol::start_pull(pami::Endpoint origin, const RtsInfo& rts, void* buffer,
                              std::size_t bytes, pami::EventFn on_complete) {
  const int origin_node = engine_.machine().node_of_task(origin.task);
  const std::size_t pull = buffer != nullptr ? std::min(bytes, std::size_t{rts.bytes}) : 0;

  if (pull == 0) {
    if (on_complete) on_complete();
    engine_.send_done(origin, rts.handle);
    return;
  }

  // Pull the payload with an RDMA remote get straight into the user buffer.
  obs_.pvars.add(obs::Pvar::RdzvPullsStarted);
  engine_.ctx_obs().trace.record(obs::TraceEv::RdzvPull, static_cast<std::uint32_t>(pull));
  auto counter = engine_.acquire_counter();
  counter->prime(static_cast<std::int64_t>(pull));

  auto payload_desc = engine_.acquire_remote_desc();
  payload_desc->type = hw::MuPacketType::DirectPut;
  payload_desc->routing = hw::MuRouting::Dynamic;
  payload_desc->dest_node = engine_.machine().node_of_task(engine_.endpoint().task);
  payload_desc->payload = reinterpret_cast<const std::byte*>(rts.src_addr);
  payload_desc->payload_bytes = pull;
  payload_desc->put_dest = static_cast<std::byte*>(buffer);
  payload_desc->rec_counter = counter.get();

  hw::MuDescriptor desc;
  desc.type = hw::MuPacketType::RemoteGet;
  desc.routing = hw::MuRouting::Deterministic;
  desc.dest_node = origin_node;
  desc.remote_payload = std::move(payload_desc);

  // The remote-get can be backpressured too; requeue until it goes out.
  engine_.push_control(origin_node, std::move(desc));
  // Two-slot watch: the user callback fires first, then the protocol's
  // DONE step — without nesting one inline callable in another's capture.
  engine_.watch_counter(std::move(counter), std::move(on_complete),
                        [this, origin, handle = rts.handle] { engine_.send_done(origin, handle); });
}

void RdzvProtocol::handle_rts(hw::MuPacket&& pkt) {
  const hw::MuSoftwareHeader& sw = pkt.sw;
  const pami::Endpoint origin{static_cast<std::int32_t>(sw.origin_task),
                              static_cast<std::int16_t>(sw.origin_context)};
  const std::byte* stream = pkt.payload.data();
  assert(pkt.payload.size() == sw.header_bytes + sizeof(RtsInfo));
  RtsInfo rts;
  std::memcpy(&rts, stream + sw.header_bytes, sizeof(RtsInfo));

  const pami::DispatchFn& fn = engine_.dispatch(sw.dispatch_id);
  assert(fn && "no dispatch registered for incoming RTS");
  engine_.ctx_obs().pvars.add(obs::Pvar::MessagesDispatched);
  obs_.pvars.add(obs::Pvar::RdzvRtsReceived);
  engine_.ctx_obs().trace.record(obs::TraceEv::RdzvRts, static_cast<std::uint32_t>(rts.bytes));
  pami::RecvDescriptor rd;
  rd.defer_handle = engine_.alloc_defer_handle();
  fn(engine_.context(), stream, sw.header_bytes, nullptr, 0, rts.bytes, origin, &rd);

  if (rd.defer) {
    deferred_.emplace(rd.defer_handle, Deferred{origin, rts});
    return;
  }
  start_pull(origin, rts, rd.buffer, rd.buffer != nullptr ? rd.bytes : 0,
             std::move(rd.on_complete));
}

bool RdzvProtocol::complete_deferred(std::uint64_t handle, void* buffer, std::size_t bytes,
                                     pami::EventFn& on_complete) {
  auto it = deferred_.find(handle);
  if (it == deferred_.end()) return false;
  Deferred d = it->second;
  deferred_.erase(it);
  start_pull(d.origin, d.rts, buffer, bytes, std::move(on_complete));
  return true;
}

}  // namespace pamix::proto

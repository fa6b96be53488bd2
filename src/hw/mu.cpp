#include "hw/mu.h"

#include <algorithm>
#include <cassert>

#include "hw/wakeup_unit.h"

namespace pamix::hw {

namespace {

/// Frame the burst of packets that starts at payload offset `off` into
/// `out`, staging payload slices from `pool`. Every field is written, so
/// `out` may hold packets moved from by an earlier burst. Returns the
/// packet count: up to kMuBurstPackets, at least one (a header-only
/// descriptor is one empty packet).
std::size_t frame_burst(MuPacket* out, const MuDescriptor& desc, int src_node, std::size_t off,
                        core::BufferPool& pool) {
  std::size_t n = 0;
  do {
    const std::size_t chunk = std::min(kMaxPacketPayload, desc.payload_bytes - off);
    MuPacket& pkt = out[n++];
    pkt.type = desc.type;
    pkt.routing = desc.routing;
    pkt.hints = desc.hints;
    pkt.deposit = desc.deposit;
    pkt.src_node = src_node;
    pkt.dest_node = desc.dest_node;
    pkt.rec_fifo = desc.rec_fifo;
    pkt.sw = desc.sw;
    pkt.sw.packet_offset = static_cast<std::uint32_t>(off);
    const bool put = desc.type == MuPacketType::DirectPut;
    pkt.put_dest = put ? desc.put_dest + off : nullptr;
    pkt.rec_counter = put ? desc.rec_counter : nullptr;
    pkt.remote_payload = desc.remote_payload;
    pkt.remote_inj_fifo = desc.remote_inj_fifo;
    pkt.payload = desc.payload != nullptr && chunk > 0
                      ? pool.acquire_copy(desc.payload + off, chunk)
                      : core::Buf();
    off += chunk;
  } while (off < desc.payload_bytes && n < kMuBurstPackets);
  return n;
}

/// Payload offset after the first `sent` packets of a burst framed at
/// `off`: every packet but a descriptor's last carries a full payload.
std::size_t advance_offset(const MuDescriptor& desc, std::size_t off, std::size_t sent) {
  return std::min(desc.payload_bytes, off + sent * kMaxPacketPayload);
}

}  // namespace

MessagingUnit::MessagingUnit(int node_id, NetworkPort* port, WakeupUnit* wakeup,
                             std::size_t inj_capacity, std::size_t rec_capacity)
    : node_id_(node_id),
      port_(port),
      wakeup_(wakeup),
      obs_(obs::Registry::instance().create("node" + std::to_string(node_id) + ".mu",
                                            /*pid=*/node_id, /*tid=*/0, /*want_ring=*/false)),
      svc_pool_(&obs_.pvars) {
  inj_.reserve(kInjFifoCount);
  rec_.reserve(kRecFifoCount);
  for (int i = 0; i < kInjFifoCount; ++i) {
    inj_.push_back(std::make_unique<InjFifo>(inj_capacity));
  }
  for (int i = 0; i < kRecFifoCount; ++i) {
    rec_.push_back(std::make_unique<RecFifo>(rec_capacity));
  }
  pending_.resize(kInjFifoCount);
  inj_pools_.resize(kInjFifoCount);
}

std::vector<int> MessagingUnit::allocate_inj_fifos(int count) {
  std::lock_guard<std::mutex> g(alloc_mu_);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count && next_inj_ < kInjFifoCount; ++i) {
    out.push_back(next_inj_++);
  }
  return out;
}

std::vector<int> MessagingUnit::allocate_rec_fifos(int count) {
  std::lock_guard<std::mutex> g(alloc_mu_);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count && next_rec_ < kRecFifoCount; ++i) {
    out.push_back(next_rec_++);
  }
  return out;
}

int MessagingUnit::inj_fifos_available() const { return kInjFifoCount - next_inj_; }
int MessagingUnit::rec_fifos_available() const { return kRecFifoCount - next_rec_; }

core::BufferPool& MessagingUnit::inj_pool(int fifo_idx) {
  // Created on first use by the FIFO's single owning context; no lock
  // needed (distinct indices are written by distinct owners, and the
  // vector itself never resizes after construction).
  auto& p = inj_pools_[static_cast<std::size_t>(fifo_idx)];
  if (p == nullptr) p = std::make_unique<core::BufferPool>(&obs_.pvars);
  return *p;
}

void MessagingUnit::reserve_staging(int fifo_idx, std::size_t bytes, std::size_t count) {
  static_assert(core::kBufClassSizes[1] == kMaxPacketPayload,
                "a full packet payload is exactly the second size class");
  // Every packet but a message's last carries a full payload; the last
  // shares the full packets' class unless it fits the smallest one.
  const std::size_t full = bytes / kMaxPacketPayload;
  const std::size_t tail = bytes % kMaxPacketPayload;
  const bool tail_shares_class = tail > core::kBufClassSizes[0];
  core::BufferPool& pool = inj_pool(fifo_idx);
  pool.reserve(kMaxPacketPayload, count * (full + (tail_shares_class ? 1 : 0)));
  if (tail > 0 && !tail_shares_class) pool.reserve(tail, count);
}

std::uint64_t MessagingUnit::staging_pool_misses() const {
  std::uint64_t n = 0;
  for (const auto& p : inj_pools_) n += p != nullptr ? p->misses() : 0;
  return n;
}

MessagingUnit::PendingInj& MessagingUnit::pending_slot(int fifo_idx) {
  // Created by the FIFO's single owning context (prepare_injection() or
  // first advance); same ownership argument as inj_pool() above.
  auto& p = pending_[static_cast<std::size_t>(fifo_idx)];
  if (p == nullptr) p = std::make_unique<PendingInj>();
  return *p;
}

int MessagingUnit::advance_injection(int idx) {
  int injected = 0;
  PendingInj& slot = pending_slot(idx);
  if (slot.active) {
    // Resume a descriptor that was backpressured mid-message.
    if (!inject_resumable(idx)) return injected;
    ++injected;
  }
  MuDescriptor desc;
  while (inj_fifo(idx).pop(desc)) {
    slot.desc = std::move(desc);
    slot.off = 0;
    slot.active = true;
    if (!inject_resumable(idx)) break;  // backpressure: stop this FIFO
    ++injected;
  }
  return injected;
}

std::size_t MessagingUnit::receive(MuPacket* pkts, std::size_t n) {
  if (n == 0) return 0;
  const MuPacketType type = pkts[0].type;
  std::size_t accepted = n;
  switch (type) {
    case MuPacketType::MemoryFifo: {
      RecFifo& rf = rec_fifo(pkts[0].rec_fifo);
      accepted = rf.deliver(pkts, n);
      if (accepted > 0 && wakeup_ != nullptr) wakeup_->notify_write(&rf.delivered_count());
      break;
    }
    case MuPacketType::DirectPut: {
      // Copy every slice, then count them down in one decrement: software
      // polling the counter sees the burst land all at once.
      std::int64_t bytes = 0;
      for (std::size_t i = 0; i < n; ++i) {
        MuPacket& pkt = pkts[i];
        assert(pkt.rec_counter == pkts[0].rec_counter);
        if (!pkt.payload.empty()) {
          assert(pkt.put_dest != nullptr);
          std::memcpy(pkt.put_dest, pkt.payload.data(), pkt.payload.size());
          bytes += static_cast<std::int64_t>(pkt.payload.size());
        }
        pkt.payload.reset();
      }
      if (MuReceptionCounter* counter = pkts[0].rec_counter) {
        counter->decrement(bytes);
        if (wakeup_ != nullptr) wakeup_->notify_write(counter);
      }
      break;
    }
    case MuPacketType::RemoteGet: {
      // The packet's payload is itself a descriptor. The MU services
      // remote gets autonomously — no target software runs — so execute
      // the contained descriptor immediately (DMA-read the requested
      // buffer and direct-put it back to the requester).
      accepted = 0;
      while (accepted < n) {
        assert(pkts[accepted].remote_payload != nullptr);
        if (!inject_one(*pkts[accepted].remote_payload)) break;
        pkts[accepted].remote_payload.reset();
        ++accepted;
      }
      break;
    }
  }
  rx_count_[static_cast<std::size_t>(type)].fetch_add(accepted, std::memory_order_relaxed);
  return accepted;
}

bool MessagingUnit::inject_one(MuDescriptor& desc) {
  // Single-shot injection, bypassing the FIFOs: remote-get servicing. May
  // run on any thread, so payload staging comes from the shared service
  // pool, under its mutex once per burst. Assumes no backpressure.
  MuPacket burst[kMuBurstPackets];
  std::size_t off = 0;
  do {
    std::unique_lock<L2AtomicMutex> g(svc_mu_);
    const std::size_t n = frame_burst(burst, desc, node_id_, off, svc_pool_);
    g.unlock();
    const std::size_t sent = port_->transmit(burst, n);
    obs_.pvars.add(obs::Pvar::PacketsInjected, sent);
    if (sent < n) return false;
    off = advance_offset(desc, off, sent);
  } while (off < desc.payload_bytes);
  if (desc.on_injected) desc.on_injected();
  return true;
}

bool MessagingUnit::inject_resumable(int fifo_idx) {
  // Framing scratch, one per thread: any context's advancing thread runs
  // this, and nothing re-enters it while a burst is in flight (remote-get
  // service, the only injection a transmit can trigger, has its own).
  thread_local MuPacket burst[kMuBurstPackets];
  PendingInj& slot = *pending_[static_cast<std::size_t>(fifo_idx)];
  MuDescriptor& desc = slot.desc;
  core::BufferPool& pool = inj_pool(fifo_idx);
  do {
    const std::size_t n = frame_burst(burst, desc, node_id_, slot.off, pool);
    const std::size_t sent = port_->transmit(burst, n);
    obs_.pvars.add(obs::Pvar::PacketsInjected, sent);
    slot.off = advance_offset(desc, slot.off, sent);
    if (sent < n) {
      // Backpressure: keep the slot and resume at the first rejected
      // packet; drop what the rejected copies hold until then.
      for (std::size_t i = sent; i < n; ++i) {
        burst[i].payload.reset();
        burst[i].remote_payload.reset();
      }
      return false;
    }
  } while (slot.off < desc.payload_bytes);
  if (desc.on_injected) desc.on_injected();
  slot.desc = MuDescriptor{};  // drop staged buffers/callbacks promptly
  slot.active = false;
  return true;
}

}  // namespace pamix::hw

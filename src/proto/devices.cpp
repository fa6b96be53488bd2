#include "proto/devices.h"

#include <bit>
#include <cassert>

#include "proto/progress_engine.h"

namespace pamix::proto {

std::size_t WorkQueueDevice::poll() {
  // Bound each pass to the items present at entry so a work item that
  // re-posts itself (a send retrying an Eagain) runs again only on the
  // next pass, after the MU device has had a chance to drain the FIFOs
  // that caused the Eagain in the first place.
  const std::size_t budget = queue_.pending();
  const std::size_t drained = budget > 0 ? queue_.advance(budget) : 0;
  if (drained > 0) {
    obs_.pvars.add(obs::Pvar::WorkItemsDrained, drained);
    obs_.trace.record(obs::TraceEv::WorkDrain, static_cast<std::uint32_t>(drained));
  }
  return drained;
}

std::size_t ControlDevice::poll() {
  if (pending_.empty()) return 0;
  std::size_t sent = 0;
  while (!pending_.empty()) {
    auto& [node, desc] = pending_.front();
    // push_descriptor consumes the descriptor only on success; on failure
    // it stays parked at the front for the next pass.
    if (!engine_.push_descriptor(engine_.inj_fifo_for(node), std::move(desc))) break;
    pending_.pop_front();
    ++sent;
  }
  parked_.store(pending_.size(), std::memory_order_relaxed);
  return sent;
}

MuDevice::MuDevice(ProgressEngine& engine, hw::MessagingUnit& mu, int first_inj_fifo,
                   int inj_fifos, int rec_fifo, obs::Domain& obs, int batch)
    : engine_(engine), mu_(mu), first_inj_(first_inj_fifo), inj_count_(inj_fifos),
      rec_fifo_(rec_fifo), obs_(obs), batch_(static_cast<std::size_t>(batch < 1 ? 1 : batch)) {
  assert(inj_fifos >= 1 && inj_fifos <= kMaxInjFifos);
  for (int j = 0; j < inj_count_; ++j) mu_.prepare_injection(first_inj_ + j);
}

void MuDevice::update_backlog(int fifo) {
  const std::uint64_t bit = std::uint64_t{1} << (fifo - first_inj_);
  const std::uint64_t mask = backlog_.load(std::memory_order_relaxed);
  const std::uint64_t next = mu_.injection_backlogged(fifo) ? mask | bit : mask & ~bit;
  // Store only on change: commthreads read this word in their sleep check.
  if (next != mask) backlog_.store(next, std::memory_order_relaxed);
}

bool MuDevice::push(int fifo, hw::MuDescriptor&& desc) {
  assert(fifo >= first_inj_ && fifo < first_inj_ + inj_count_);
  hw::InjFifo& f = mu_.inj_fifo(fifo);
  // FIFO full: let the engine drain it once, then retry. (push leaves the
  // descriptor intact on failure, so the second attempt — and the caller's
  // own retry after Eagain — see it unchanged.)
  bool pushed = f.push(std::move(desc));
  if (!pushed) {
    mu_.advance_injection(fifo);
    pushed = f.push(std::move(desc));
  }
  // Kick the engine so the descriptor starts moving now; what it cannot
  // inject is left to the backlog walk of later passes.
  if (pushed) mu_.advance_injection(fifo);
  update_backlog(fifo);
  return pushed;
}

std::size_t MuDevice::poll_injection() {
  std::size_t injected = 0;
  // Snapshot, then re-read per FIFO: an injection-completion callback may
  // push (and set bits) while the walk runs; a bit set that way is picked
  // up by the next pass.
  for (std::uint64_t bits = backlog_.load(std::memory_order_relaxed); bits != 0;
       bits &= bits - 1) {
    const int fifo = first_inj_ + std::countr_zero(bits);
    injected += static_cast<std::size_t>(mu_.advance_injection(fifo));
    update_backlog(fifo);
  }
  return injected;
}

std::size_t MuDevice::poll() {
  std::size_t events = poll_injection();
  // A dispatched handler may advance the context re-entrantly, and batch_
  // is live in the outer frame then: the nested poll skips reception and
  // leaves the packets to the still-running outer drain.
  if (polling_) return events;
  polling_ = true;
  // Release the previous batch's payloads only now, off the path from
  // dispatch to the reply it triggers; left in the scratch slots they
  // would pin the senders' staging blocks until a batch as large reused
  // the slot.
  for (std::size_t i = 0; i < held_; ++i) batch_[i].payload.reset();
  // Batched reception: one FIFO lock acquisition pulls up to batch_.size()
  // packets into the reusable scratch array, then dispatch runs outside
  // the FIFO structures.
  const std::size_t rx = mu_.rec_fifo(rec_fifo_).poll_batch(batch_.data(), batch_.size());
  for (std::size_t i = 0; i < rx; ++i) {
    engine_.on_mu_packet(std::move(batch_[i]));
  }
  held_ = rx;
  polling_ = false;
  if (rx > 0) obs_.pvars.add(obs::Pvar::PacketsReceived, rx);
  return events + rx;
}

std::size_t ShmQueueDevice::poll() {
  return shm_.advance(ctx_, [this](pami::ShmPacket&& p) { engine_.on_shm_packet(std::move(p)); });
}

std::size_t CounterDevice::poll() {
  std::size_t fired = 0;
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].counter->complete()) {
      pami::EventFn fn = std::move(pending_[i].on_done);
      pami::EventFn then = std::move(pending_[i].then);
      free_.push_back(std::move(pending_[i].counter));  // recycle, don't free
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      outstanding_.store(pending_.size(), std::memory_order_relaxed);
      if (fn) fn();
      if (then) then();
      ++fired;
    } else {
      ++i;
    }
  }
  return fired;
}

}  // namespace pamix::proto

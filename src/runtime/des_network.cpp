#include "runtime/des_network.h"

#include <algorithm>
#include <cmath>

#include "runtime/machine.h"
#include "sim/des_torus.h"

namespace pamix::runtime {

DesNetwork::DesNetwork(Machine* machine, Options opt)
    : machine_(machine),
      opt_(opt),
      obs_(obs::Registry::instance().create("sim.net", /*pid=*/-1, /*tid=*/0,
                                            /*want_ring=*/false)),
      link_free_(static_cast<std::size_t>(machine->geometry().directed_link_count()), 0.0),
      link_packets_(static_cast<std::size_t>(machine->geometry().directed_link_count()), 0),
      link_skew_(static_cast<std::size_t>(machine->geometry().directed_link_count()), 1.0),
      blocked_(static_cast<std::size_t>(machine->geometry().node_count())),
      retry_armed_(static_cast<std::size_t>(machine->geometry().node_count()), 0) {
  if (opt_.link_skew_pct > 0.0) {
    // Seeded splitmix64 per link: cheap, stateless, and stable across runs
    // with the same seed — the determinism contract PAMIX_SIM_SEED makes.
    const double amp = std::min(opt_.link_skew_pct, 90.0) / 100.0;
    for (std::size_t i = 0; i < link_skew_.size(); ++i) {
      std::uint64_t z = opt_.seed + 0x9e3779b97f4a7c15ull * (i + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      const double u = static_cast<double>(z >> 11) / 9007199254740992.0;  // [0,1)
      link_skew_[i] = 1.0 + amp * (2.0 * u - 1.0);
    }
  }
}

std::size_t DesNetwork::transmit(hw::MuPacket* pkts, std::size_t n) {
  std::lock_guard<std::recursive_mutex> g(mu_);
  // Packet by packet: each one takes its own route sequence number and
  // link slots, so virtual times do not depend on how packets are burst.
  for (std::size_t i = 0; i < n; ++i) {
    auto f = std::make_shared<Flight>();
    f->pkt = std::move(pkts[i]);
    f->payload = f->pkt.payload.size();
    f->route = sim::torus_route(machine_->geometry(), f->pkt.src_node, f->pkt.dest_node,
                                f->pkt.routing, packet_seq_++, f->pkt.hints);
    const sim::SimTime t = events_.now() + opt_.model.mu_injection_us;
    if (f->route.empty()) {
      // Self-send: loops back through the MU without touching the torus.
      const int dest = f->pkt.dest_node;
      auto pp = std::make_shared<hw::MuPacket>(std::move(f->pkt));
      schedule_delivery(t + opt_.model.mu_reception_us, std::move(pp), dest);
      continue;
    }
    events_.schedule_at(t, [this, f] { step_flight(f); });
  }
  return n;
}

void DesNetwork::step_flight(const std::shared_ptr<Flight>& f) {
  const hw::TorusGeometry& geom = machine_->geometry();
  const hw::TorusLink& link = f->route[f->hop];
  const std::size_t li = static_cast<std::size_t>(geom.link_index(link));
  const sim::SimTime ser = opt_.model.packet_serialization_us(f->payload);
  const sim::SimTime depart = std::max(events_.now(), link_free_[li]);
  // Same cut-through discipline as sim::DesTorus::step_packet: the link is
  // occupied for the serialization time; the head moves on after one
  // (possibly skewed) hop latency; the tail matters only at reception.
  link_free_[li] = depart + ser;
  ++link_packets_[li];
  if (link_packets_[li] > link_peak_) {
    obs_.pvars.add(obs::Pvar::SimLinkMaxOccupancy, link_packets_[li] - link_peak_);
    link_peak_ = link_packets_[li];
    max_link_.store(link_peak_, std::memory_order_relaxed);
  }
  const sim::SimTime arrive = depart + opt_.model.hop_latency_us * link_skew_[li];
  const int hop_node = geom.neighbor(link.node, link.dim, link.dir);
  const bool last = f->hop + 1 == f->route.size();
  if (last) {
    auto pp = std::make_shared<hw::MuPacket>(std::move(f->pkt));
    schedule_delivery(arrive + ser + opt_.model.mu_reception_us, std::move(pp), hop_node);
    return;
  }
  if (f->pkt.deposit) {
    // Deposit-bit line broadcast: every node the route passes through also
    // consumes the packet, at the time it arrives there.
    auto copy = std::make_shared<hw::MuPacket>(f->pkt.clone());
    schedule_delivery(arrive + ser + opt_.model.mu_reception_us, std::move(copy), hop_node);
  }
  ++f->hop;
  events_.schedule_at(arrive, [this, f] { step_flight(f); });
}

void DesNetwork::schedule_delivery(sim::SimTime t, std::shared_ptr<hw::MuPacket> pkt,
                                   int node) {
  events_.schedule_at(t, [this, pkt, node] { deliver(pkt, node); });
}

bool DesNetwork::deliver_now(hw::MuPacket&& pkt, int node) {
  const std::size_t payload = pkt.payload.size();
  if (machine_->node(node).mu().receive(&pkt, 1) == 0) return false;
  packets_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload, std::memory_order_relaxed);
  obs_.pvars.add(obs::Pvar::SimPackets);
  if (listener_) listener_(node);
  return true;
}

void DesNetwork::deliver(const std::shared_ptr<hw::MuPacket>& pkt, int node) {
  auto& q = blocked_[static_cast<std::size_t>(node)];
  if (!q.empty()) {
    // Earlier arrivals are still stuck behind a full reception FIFO: queue
    // behind them so retries never reorder deliveries (head-of-line
    // blocking, like the real torus).
    obs_.pvars.add(obs::Pvar::SimDeliverRetries);
    q.push_back(pkt);
    return;
  }
  if (deliver_now(std::move(*pkt), node)) return;
  // Reception FIFO full: receive() left the packet intact, so park it and
  // retry a little later — the DES analogue of torus backpressure. Wake
  // the node's software too: it owns the FIFO that needs draining.
  obs_.pvars.add(obs::Pvar::SimDeliverRetries);
  q.push_back(pkt);
  if (listener_) listener_(node);
  arm_retry(node);
}

void DesNetwork::arm_retry(int node) {
  if (retry_armed_[static_cast<std::size_t>(node)]) return;
  retry_armed_[static_cast<std::size_t>(node)] = 1;
  events_.schedule_after(opt_.retry_us, [this, node] {
    retry_armed_[static_cast<std::size_t>(node)] = 0;
    drain_blocked(node);
  });
}

void DesNetwork::drain_blocked(int node) {
  auto& q = blocked_[static_cast<std::size_t>(node)];
  while (!q.empty()) {
    if (!deliver_now(std::move(*q.front()), node)) {
      // Still full: keep the rest parked in order and try again later.
      arm_retry(node);
      return;
    }
    q.pop_front();
  }
}

std::size_t DesNetwork::run_due_locked() {
  std::size_t n = 0;
  // Events scheduled *at* the current clock by code running now (retries,
  // re-entrant transmits) all land strictly later, so this drain is finite.
  while (!events_.empty() && events_.next_time() <= events_.now()) {
    events_.step();
    ++n;
  }
  return n;
}

std::size_t DesNetwork::advance_batch_locked() {
  if (events_.empty()) return 0;
  const sim::SimTime before = events_.now();
  const sim::SimTime t = events_.next_time();
  std::size_t n = 0;
  while (!events_.empty() && events_.next_time() <= t) {
    events_.step();
    ++n;
  }
  obs_.pvars.add(obs::Pvar::SimEvents, n);
  const double dns = (events_.now() - before) * 1000.0;
  if (dns > 0.0) obs_.pvars.add(obs::Pvar::SimVirtualNs, static_cast<std::uint64_t>(dns));
  return n;
}

std::size_t DesNetwork::progress() {
  std::unique_lock<std::recursive_mutex> lk(mu_, std::try_to_lock);
  if (!lk.owns_lock()) return 0;  // another thread is already pumping
  std::size_t n = run_due_locked();
  if (n > 0) obs_.pvars.add(obs::Pvar::SimEvents, n);
  if (n == 0 && opt_.auto_advance) n = advance_batch_locked();
  return n;
}

bool DesNetwork::advance_time() {
  std::lock_guard<std::recursive_mutex> g(mu_);
  return advance_batch_locked() > 0;
}

double DesNetwork::now_us() const {
  std::lock_guard<std::recursive_mutex> g(mu_);
  return events_.now();
}

std::uint64_t DesNetwork::in_flight() const {
  std::lock_guard<std::recursive_mutex> g(mu_);
  return events_.pending();
}

}  // namespace pamix::runtime

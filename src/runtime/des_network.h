// DesNetwork — the timed transport backend: real MuPackets through the DES.
//
// Where FunctionalNetwork delivers a packet the instant transmit() is
// called, DesNetwork schedules it through the same per-link contention
// model as sim::DesTorus (cut-through routing, links as serially-reusable
// resources, BG/Q cost-model latencies) and delivers it to the destination
// MessagingUnit only when the discrete-event clock reaches its arrival.
// The packets are the *real* injection-FIFO packets of the protocol stack —
// eager fragments, rendezvous control, direct puts, remote gets, deposit-bit
// line broadcasts — so the unchanged proto/mpi/coll/am layers run at
// 512–4096-node geometries with honest link contention.
//
// Guarantees preserved from the hardware contract:
//   * deterministic routing is dimension-ordered and per-link departures
//     are monotone, so packets from one injection FIFO to one destination
//     arrive in injection order (MPI non-overtaking);
//   * dynamic routing spreads packets over dimension-order rotations
//     (sim::torus_route, shared with DesTorus so cost models cannot drift);
//   * transmit() never backpressures the sender — reception-FIFO
//     backpressure is absorbed by re-scheduling the delivery (counted in
//     sim.deliver_retries), the DES analogue of torus flow control.
//
// Two clock disciplines:
//   * auto_advance=true (default): progress() — pumped by every
//     ProgressEngine::advance — jumps the clock to the next event batch
//     when nothing is due, so threaded blocking loops always make headway;
//   * auto_advance=false: a cooperative driver (sim::ScenarioWorld) calls
//     advance_time() only at software quiescence, which makes runs with a
//     fixed PAMIX_SIM_SEED bit-for-bit deterministic.
//
// All simulated time lives in the embedded EventQueue; per-link latency
// skew (seeded, ±skew_pct) models the non-uniform cables of a real
// installation. Telemetry lands in the per-machine "sim.net" obs domain.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "hw/net_backend.h"
#include "hw/torus.h"
#include "obs/pvar.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace pamix::runtime {

class Machine;

class DesNetwork final : public hw::NetBackend {
 public:
  struct Options {
    sim::BgqCostModel model{};
    std::uint64_t seed = 0;
    /// Per-link hop-latency skew: each directed link gets a seeded
    /// multiplier in [1-p/100, 1+p/100]. 0 = uniform machine.
    double link_skew_pct = 0.0;
    bool auto_advance = true;
    /// Delay before retrying a delivery bounced by a full reception FIFO.
    double retry_us = 0.1;
  };

  DesNetwork(Machine* machine, Options opt);

  // --- hw::NetBackend -------------------------------------------------------
  std::size_t transmit(hw::MuPacket* pkts, std::size_t n) override;
  const char* name() const override { return "des"; }
  bool timed() const override { return true; }
  std::size_t progress() override;
  bool advance_time() override;
  double now_us() const override;
  std::uint64_t in_flight() const override;
  std::uint64_t packets_delivered() const override {
    return packets_.load(std::memory_order_relaxed);
  }
  std::uint64_t payload_bytes_delivered() const override {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_link_occupancy() const override {
    return max_link_.load(std::memory_order_relaxed);
  }

  // --- scenario-driver hooks ------------------------------------------------

  /// Called (inside the event loop, clock at delivery time) after each
  /// successful delivery, with the node that received the packet. The
  /// cooperative driver uses it to mark nodes whose software must run.
  using DeliveryListener = std::function<void(int dest_node)>;
  void set_delivery_listener(DeliveryListener fn) { listener_ = std::move(fn); }

  const sim::BgqCostModel& model() const { return opt_.model; }
  obs::Domain& obs() { return obs_; }

 private:
  struct Flight {
    hw::MuPacket pkt;
    std::vector<hw::TorusLink> route;
    std::size_t hop = 0;
    std::size_t payload = 0;
  };

  void step_flight(const std::shared_ptr<Flight>& f);
  void schedule_delivery(sim::SimTime t, std::shared_ptr<hw::MuPacket> pkt, int node);
  void deliver(const std::shared_ptr<hw::MuPacket>& pkt, int node);
  void drain_blocked(int node);
  void arm_retry(int node);
  bool deliver_now(hw::MuPacket&& pkt, int node);
  std::size_t run_due_locked();
  std::size_t advance_batch_locked();

  Machine* machine_;
  Options opt_;
  obs::Domain& obs_;
  // Recursive: delivery events run under the lock and may re-enter
  // transmit() (remote-get servicing injects the reply from inside
  // MessagingUnit::receive).
  mutable std::recursive_mutex mu_;
  sim::EventQueue events_;
  std::vector<sim::SimTime> link_free_;
  std::vector<std::uint64_t> link_packets_;
  std::vector<double> link_skew_;
  // Per-node backpressure queues: a delivery bounced by a full reception
  // FIFO blocks every later delivery to that node (head-of-line, like the
  // real torus), preserving arrival order across retries.
  std::vector<std::deque<std::shared_ptr<hw::MuPacket>>> blocked_;
  std::vector<char> retry_armed_;
  std::uint64_t packet_seq_ = 0;
  std::uint64_t link_peak_ = 0;  // mirror of max_link_ for delta updates
  std::atomic<std::uint64_t> max_link_{0};
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> bytes_{0};
  DeliveryListener listener_;
};

}  // namespace pamix::runtime

// NetBackend — the pluggable byte-moving transport contract.
//
// `hw::NetworkPort` is the minimal MU-facing surface (transmit a burst of
// packets). A *backend* is a full transport implementation behind it: it
// owns the delivery/time contract the rest of the stack used to assume
// implicitly.
// Two implementations exist:
//
//   * runtime::FunctionalNetwork — untimed: transmit() routes the burst to
//     the destination MU synchronously (the host memory system is the
//     wire). progress() is a no-op and the virtual clock never moves.
//   * runtime::DesNetwork — timed: transmit() schedules each packet through
//     sim::DesTorus-style per-link contention with the BG/Q cost model;
//     delivery happens when the discrete-event clock reaches the packet's
//     arrival. The proto::ProgressEngine pumps progress() every advance, so
//     no layer above the MU may assume synchronous delivery.
//
// Selection is per-Machine at run time: MachineOptions::backend, defaulted
// from PAMIX_NET=functional|des (exported as the config.net_backend pvar).
#pragma once

#include <cstdint>

#include "hw/mu.h"

namespace pamix::hw {

/// Which backend a Machine moves bytes through.
enum class NetBackendKind : int { Functional = 0, Des = 1 };

class NetBackend : public NetworkPort {
 public:
  ~NetBackend() override = default;

  /// Stable short name ("functional", "des") for diagnostics/telemetry.
  virtual const char* name() const = 0;

  /// True when delivery is clocked: packets handed to transmit() arrive
  /// only after progress()/advance_time() moves the virtual clock past
  /// their simulated arrival time.
  virtual bool timed() const { return false; }

  /// Deliver everything due at the current virtual time; in auto-advance
  /// timed backends this may also move the clock to the next event when
  /// nothing is due (so threaded blocking loops keep making progress).
  /// Pumped by proto::ProgressEngine::advance. Returns events executed.
  virtual std::size_t progress() { return 0; }

  /// Cooperative clock control: jump to the earliest pending event time and
  /// run every event scheduled at it. Returns false when nothing is in
  /// flight. Scenario drivers call this only at software quiescence, which
  /// keeps runs deterministic.
  virtual bool advance_time() { return false; }

  /// Current virtual time (µs). Always 0 for untimed backends.
  virtual double now_us() const { return 0.0; }

  /// Scheduled network events not yet executed (packets in flight plus
  /// pending delivery retries). 0 for untimed backends.
  virtual std::uint64_t in_flight() const { return 0; }

  /// Delivery counters, shared by both backends (tests audit routes and
  /// benches report packet totals through one interface).
  virtual std::uint64_t packets_delivered() const = 0;
  virtual std::uint64_t payload_bytes_delivered() const = 0;

  /// Max packets observed crossing any one directed link (congestion
  /// telemetry; 0 when the backend does not track per-link occupancy).
  virtual std::uint64_t max_link_occupancy() const { return 0; }
};

}  // namespace pamix::hw

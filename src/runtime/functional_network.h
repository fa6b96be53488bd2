// FunctionalNetwork — the byte-moving transport of the functional machine.
//
// Where the DES torus (sim/) models *when* packets arrive, this transport
// actually delivers them: a packet handed to `transmit` is routed to the
// destination node's MessagingUnit immediately (the host memory system is
// the wire), one burst per call: one reception-FIFO lock, one set of
// counter adds and one wakeup notify per burst.  Ordering matches the deterministic-routing guarantee PAMI
// relies on: packets from one injection FIFO to one destination arrive in
// injection order, because the sending MU engine drains its FIFO in order
// and delivery is synchronous.
//
// Per-link traffic counters are kept so tests and examples can audit
// routes (e.g. that nearest-neighbor traffic really used one link).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "hw/mu.h"
#include "hw/net_backend.h"
#include "hw/torus.h"

namespace pamix::runtime {

class Machine;

class FunctionalNetwork final : public hw::NetBackend {
 public:
  explicit FunctionalNetwork(Machine* machine) : machine_(machine) {}

  std::size_t transmit(hw::MuPacket* pkts, std::size_t n) override;
  const char* name() const override { return "functional"; }

  std::uint64_t packets_delivered() const override {
    return packets_.load(std::memory_order_relaxed);
  }
  std::uint64_t payload_bytes_delivered() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  Machine* machine_;
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace pamix::runtime

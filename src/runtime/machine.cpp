#include "runtime/machine.h"

#include <exception>
#include <mutex>

#include "core/env.h"
#include "runtime/des_network.h"

namespace pamix::runtime {

std::size_t FunctionalNetwork::transmit(hw::MuPacket* pkts, std::size_t n) {
  if (n == 0) return 0;
  if (pkts[0].deposit) {
    // Deposit-bit line broadcast: the packet is consumed by every node the
    // deterministic route passes through, as well as the final
    // destination. (The hardware restricts this to single-dimension
    // routes; memory-FIFO deposits land in the same FIFO id per node.)
    // A deposited direct-put writes the same offset in each node's
    // (process-local) destination; our single-address-space model keeps
    // one target, so deposit is only meaningful for memory-FIFO packets.
    std::vector<int> hops;
    machine_->geometry().for_each_route_link(
        pkts[0].src_node, pkts[0].dest_node, [&](const hw::TorusLink& l) {
          hops.push_back(machine_->geometry().neighbor(l.node, l.dim, l.dir));
        });
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t payload = pkts[i].payload.size();
      bool ok = true;
      for (std::size_t h = 0; h < hops.size(); ++h) {
        hw::MuPacket copy = pkts[i].clone();
        ok = machine_->node(hops[h]).mu().receive(&copy, 1) == 1 && ok;
      }
      packets_.fetch_add(hops.size(), std::memory_order_relaxed);
      bytes_.fetch_add(hops.size() * payload, std::memory_order_relaxed);
      if (!ok) return i;
      pkts[i].payload.reset();
    }
    return n;
  }
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) bytes += pkts[i].payload.size();
  const std::size_t accepted = machine_->node(pkts[0].dest_node).mu().receive(pkts, n);
  // Rejected packets are left intact, so their sizes are still readable.
  for (std::size_t i = accepted; i < n; ++i) bytes -= pkts[i].payload.size();
  if (accepted > 0) {
    packets_.fetch_add(accepted, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return accepted;
}

Machine::Machine(hw::TorusGeometry geometry, int ppn, MachineOptions options)
    : geom_(std::move(geometry)),
      ppn_(ppn),
      options_(options),
      gi_(hw::kClassRoutesPerNode),
      routes_(hw::kClassRoutesPerNode),
      engines_(hw::kClassRoutesPerNode) {
  assert(ppn_ >= 1 && ppn_ <= 64);
  // Pick the byte-moving backend: an explicit MachineOptions choice wins,
  // otherwise the PAMIX_NET run-time switch (default functional).
  const hw::NetBackendKind kind =
      options_.backend.has_value()
          ? *options_.backend
          : static_cast<hw::NetBackendKind>(
                core::env_choice_or("PAMIX_NET", 0, {"functional", "des"}));
  std::uint64_t seed = 0;
  if (kind == hw::NetBackendKind::Des) {
    DesNetwork::Options dopt;
    seed = options_.sim_seed.has_value()
               ? *options_.sim_seed
               : static_cast<std::uint64_t>(
                     core::env_int_or("PAMIX_SIM_SEED", 0, 0, 1 << 30));
    dopt.seed = seed;
    dopt.link_skew_pct =
        options_.link_skew_pct.has_value()
            ? *options_.link_skew_pct
            : static_cast<double>(core::env_int_or("PAMIX_SIM_SKEW_PCT", 0, 0, 90));
    dopt.auto_advance = options_.des_auto_advance;
    auto des = std::make_unique<DesNetwork>(this, dopt);
    des_ = des.get();
    backend_ = std::move(des);
  } else {
    backend_ = std::make_unique<FunctionalNetwork>(this);
  }
  // Record the effective transport in this machine's telemetry domain, so
  // a run's pvar dump shows which backend produced it.
  obs::Domain& md = obs::Registry::instance().create("machine", /*pid=*/-1, /*tid=*/0,
                                                     /*want_ring=*/false);
  md.pvars.add(obs::Pvar::ConfigNetBackend, static_cast<std::uint64_t>(kind));
  if (kind == hw::NetBackendKind::Des) md.pvars.add(obs::Pvar::ConfigSimSeed, seed);
  nodes_.reserve(static_cast<std::size_t>(geom_.node_count()));
  for (int n = 0; n < geom_.node_count(); ++n) {
    nodes_.push_back(std::make_unique<Node>(n, backend_.get(), options_));
  }
  // Classroute 0 is system-programmed over the whole partition at boot
  // (the COMM_WORLD route), exactly as CNK does.
  program_classroute(0, hw::TorusRectangle::whole_machine(geom_));
}

Machine::~Machine() = default;

void Machine::program_classroute(int id, const hw::TorusRectangle& rect) {
  assert(id >= 0 && id < hw::kClassRoutesPerNode);
  routes_[static_cast<std::size_t>(id)] = std::make_unique<hw::ClassRoute>(geom_, rect);
  engines_[static_cast<std::size_t>(id)] =
      std::make_unique<CollectiveNetworkEngine>(rect.node_count());
  gi_.program(id, rect.node_count());
}

void Machine::clear_classroute(int id) {
  assert(id >= 0 && id < hw::kClassRoutesPerNode);
  routes_[static_cast<std::size_t>(id)].reset();
  engines_[static_cast<std::size_t>(id)].reset();
}

void Machine::run_spmd(const std::function<void(int task)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(task_count()));
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int t = 0; t < task_count(); ++t) {
    threads.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        std::lock_guard<std::mutex> g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pamix::runtime

// Ablation — eager→rendezvous crossover swept through the PAMIX_EAGER_LIMIT
// runtime knob. Each row rebuilds the world with a different env override,
// round-trips a fixed message size across the MU path, and verifies against
// the per-protocol pvar domains that the expected protocol actually carried
// the traffic (eager domain counts vs rdzv domain counts). The host timing
// column locates the crossover the knob exists to tune.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/client.h"
#include "core/context.h"
#include "proto/protocol.h"
#include "runtime/machine.h"

namespace {

using namespace pamix;

struct SweepRow {
  std::size_t limit;       // PAMIX_EAGER_LIMIT applied
  std::size_t effective;   // what the world actually configured
  std::uint64_t eager;     // sends counted on the ".eager" domain
  std::uint64_t rdzv;      // sends counted on the ".rdzv" domain
  double us;               // host one-way time
};

SweepRow run_point(std::size_t limit, std::size_t bytes, int iters) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", limit);
  ::setenv("PAMIX_EAGER_LIMIT", buf, 1);

  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  pami::ClientConfig cfg;
  cfg.contexts_per_task = 1;
  pami::ClientWorld world(machine, cfg);
  pami::Context& tx = world.client(0).context(0);
  pami::Context& rx = world.client(1).context(0);

  std::vector<std::byte> payload(bytes, std::byte{0x5A});
  std::vector<std::byte> sink(bytes);
  int got = 0;
  rx.set_dispatch(1, [&](pami::Context&, const void*, std::size_t, const void*,
                         std::size_t, std::size_t total, pami::Endpoint,
                         pami::RecvDescriptor* recv) {
    if (recv != nullptr) {
      recv->buffer = sink.data();
      recv->bytes = total;
      recv->on_complete = [&] { ++got; };
    } else {
      ++got;
    }
  });

  const obs::PvarSnapshot e0 = tx.proto_obs(proto::ProtocolKind::Eager).pvars.snapshot();
  const obs::PvarSnapshot r0 = tx.proto_obs(proto::ProtocolKind::Rdzv).pvars.snapshot();

  pami::SendParams p;
  p.dispatch = 1;
  p.dest = pami::Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = bytes;

  bench::Stopwatch sw;
  int sent = 0;
  for (int i = 0; i < iters; ++i) {
    bool done = false;
    p.on_remote_done = [&] { done = true; };
    if (tx.send(p) != pami::Result::Success) continue;
    ++sent;
    while (!done || got < sent) {
      tx.advance();
      rx.advance();
    }
  }
  const double us = sw.elapsed_us() / (iters > 0 ? iters : 1);

  SweepRow row;
  row.limit = limit;
  row.effective = world.config().eager_limit;
  const obs::PvarSnapshot ed = tx.proto_obs(proto::ProtocolKind::Eager).pvars.snapshot() - e0;
  const obs::PvarSnapshot rd = tx.proto_obs(proto::ProtocolKind::Rdzv).pvars.snapshot() - r0;
  row.eager = ed[obs::Pvar::SendsEager];
  row.rdzv = rd[obs::Pvar::SendsRdzv];
  row.us = us;
  return row;
}

}  // namespace

int main() {
  using namespace pamix;
  bench::header("ABLATION — eager limit swept via PAMIX_EAGER_LIMIT");

  constexpr std::size_t kBytes = 8192;
  constexpr int kIters = 200;
  std::printf("Fixed %s messages, limit swept below and above (host clock):\n\n",
              bench::fmt_bytes(kBytes).c_str());
  std::printf("%-12s %-12s %8s %8s %10s %10s\n", "limit", "effective", "eager", "rdzv",
              "protocol", "us/msg");
  std::printf("----------------------------------------------------------------\n");

  bool verified = true;
  for (std::size_t limit : {std::size_t{512}, std::size_t{2048}, std::size_t{8192},
                            std::size_t{32768}, std::size_t{131072}}) {
    const SweepRow r = run_point(limit, kBytes, kIters);
    const bool expect_eager = kBytes <= r.effective;
    const char* proto = r.eager > 0 ? "eager" : "rdzv";
    // Pvar cross-check: the protocol the limit selects is the one whose
    // domain counted the sends — and the other domain counted none.
    const bool ok = expect_eager ? (r.eager == kIters && r.rdzv == 0)
                                 : (r.rdzv == kIters && r.eager == 0);
    verified = verified && ok && r.effective == r.limit;
    std::printf("%-12zu %-12zu %8llu %8llu %10s %10.2f%s\n", r.limit, r.effective,
                static_cast<unsigned long long>(r.eager),
                static_cast<unsigned long long>(r.rdzv), proto, r.us, ok ? "" : "  MISMATCH");
  }
  ::unsetenv("PAMIX_EAGER_LIMIT");

  std::printf("\nProtocol selection %s per-protocol pvar domains.\n",
              verified ? "verified against" : "DISAGREES with");
  std::printf("Eager stages a full copy per message; rendezvous trades an RTS round\n"
              "trip for an RDMA pull — the crossover is where the copy cost of %s\n"
              "overtakes the handshake.\n",
              bench::fmt_bytes(kBytes).c_str());
  bench::obs_finish();
  return verified ? 0 : 1;
}

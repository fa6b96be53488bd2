// Table 2 — MPI half round trip for a 0-byte message across the library
// variants:
//
//   Paper:   Classic / THREAD_SINGLE                 : 1.95 us
//            Classic / THREAD_MULTIPLE               : 2.28 us (no commthread)
//            Classic / THREAD_MULTIPLE  + commthread : 8.7 us (lock bounce)
//            ThreadOpt / THREAD_SINGLE               : 2.5 us
//            ThreadOpt / THREAD_MULTIPLE             : 2.96 us
//            ThreadOpt / THREAD_MULTIPLE + commthread: 3.25 us
//
// Model rows come from the calibrated simulator; the functional host rows
// run real MPI ping-pongs through pamid on this machine and check the
// orderings the paper explains (classic fastest single-threaded; the
// thread-optimized build pays its fences; commthreads hurt classic most).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mpi/mpi.h"
#include "sim/mpi_model.h"

namespace {

using namespace pamix;

double host_mpi_pingpong_us(mpi::Library lib, mpi::ThreadLevel level, bool commthreads,
                            int iters) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  mpi::MpiConfig cfg;
  cfg.library = lib;
  cfg.commthreads =
      commthreads ? mpi::MpiConfig::Commthreads::ForceOn : mpi::MpiConfig::Commthreads::ForceOff;
  cfg.commthread_count = 2;
  mpi::MpiWorld world(machine, cfg);
  double result = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(level);
    const mpi::Comm w = mp.world();
    const int me = mp.rank(w);
    const int peer = 1 - me;
    char dummy = 0;
    for (int i = 0; i < 200; ++i) {  // warmup
      if (me == 0) {
        mp.send(&dummy, 0, peer, 0, w);
        mp.recv(&dummy, 0, peer, 0, w);
      } else {
        mp.recv(&dummy, 0, peer, 0, w);
        mp.send(&dummy, 0, peer, 0, w);
      }
    }
    bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      if (me == 0) {
        mp.send(&dummy, 0, peer, 0, w);
        mp.recv(&dummy, 0, peer, 0, w);
      } else {
        mp.recv(&dummy, 0, peer, 0, w);
        mp.send(&dummy, 0, peer, 0, w);
      }
    }
    if (me == 0) result = sw.elapsed_us() / iters / 2.0;
    mp.finalize();
  });
  return result;
}

}  // namespace

int main() {
  bench::header("TABLE 2 — MPI half round trip, 0-byte message");

  sim::MpiModel model(bench::paper_32(), sim::BgqCostModel{});
  using L = sim::MpiLibrary;
  using T = sim::ThreadLevel;
  struct Row {
    const char* name;
    L lib;
    T level;
    bool comm;
    double paper;
  };
  const Row rows[] = {
      {"Classic / SINGLE", L::Classic, T::Single, false, 1.95},
      {"Classic / MULTIPLE", L::Classic, T::Multiple, false, 2.28},
      {"Classic / MULTIPLE +comm", L::Classic, T::Multiple, true, 8.7},
      {"ThreadOpt / SINGLE", L::ThreadOptimized, T::Single, false, 2.5},
      {"ThreadOpt / MULTIPLE", L::ThreadOptimized, T::Multiple, false, 2.96},
      {"ThreadOpt / MULTIPLE +comm", L::ThreadOptimized, T::Multiple, true, 3.25},
  };
  bench::columns("library / thread mode", "paper (us)", "model (us)");
  for (const Row& r : rows) {
    std::printf("%-28s %14.2f %14.2f\n", r.name, r.paper,
                model.mpi_latency_us(r.lib, r.level, r.comm));
  }

  std::printf("\nFunctional host run (real pamid ping-pong, host clock):\n");
  const int kIters = bench::env_iters("PAMIX_TABLE2_ITERS", 3000);
  bench::PvarPhase host_phase;
  const double c_single =
      host_mpi_pingpong_us(mpi::Library::Classic, mpi::ThreadLevel::Single, false, kIters);
  const double c_multi =
      host_mpi_pingpong_us(mpi::Library::Classic, mpi::ThreadLevel::Multiple, false, kIters);
  const double c_comm =
      host_mpi_pingpong_us(mpi::Library::Classic, mpi::ThreadLevel::Multiple, true, kIters);
  const double t_single =
      host_mpi_pingpong_us(mpi::Library::ThreadOptimized, mpi::ThreadLevel::Single, false,
                           kIters);
  const double t_multi =
      host_mpi_pingpong_us(mpi::Library::ThreadOptimized, mpi::ThreadLevel::Multiple, false,
                           kIters);
  const double t_comm =
      host_mpi_pingpong_us(mpi::Library::ThreadOptimized, mpi::ThreadLevel::Multiple, true,
                           kIters);
  bench::columns("library / thread mode", "host (us)", "");
  std::printf("%-28s %14.3f\n", "Classic / SINGLE", c_single);
  std::printf("%-28s %14.3f\n", "Classic / MULTIPLE", c_multi);
  std::printf("%-28s %14.3f\n", "Classic / MULTIPLE +comm", c_comm);
  std::printf("%-28s %14.3f\n", "ThreadOpt / SINGLE", t_single);
  std::printf("%-28s %14.3f\n", "ThreadOpt / MULTIPLE", t_multi);
  std::printf("%-28s %14.3f\n", "ThreadOpt / MULTIPLE +comm", t_comm);
  std::printf("\nShape checks: classic SINGLE fastest: %s; MULTIPLE adds lock cost: %s\n",
              (c_single <= t_single * 1.25) ? "OK" : "differs on host",
              (c_multi >= c_single * 0.9) ? "OK" : "differs on host");
  std::printf("Progress engine: adaptive %.3f us; adaptive <= classic single: %s\n", t_comm,
              (t_comm <= c_single) ? "OK" : "MISS");

  // Machine-readable results: host latencies plus what the matching engine
  // did across all six ping-pong phases (every recv here is an exact match,
  // so bins should carry the load and the wildcard path should stay cold).
  const auto delta = host_phase.delta();
  bench::JsonResult json;
  json.add("classic_single_us", c_single);
  json.add("classic_multiple_us", c_multi);
  json.add("classic_commthread_us", c_comm);
  json.add("threadopt_single_us", t_single);
  json.add("threadopt_multiple_us", t_multi);
  json.add("threadopt_commthread_us", t_comm);
  json.add("iters", static_cast<std::uint64_t>(kIters));
  // Progress-engine telemetry across all six phases: blocking callers
  // should steal their own progress (comm.steals high, comm.sleep_timeouts
  // ~0) and latency-shaped sends should stay inline (comm.inline_sends).
  json.add("comm.wakeups", delta[obs::Pvar::CommWakeups]);
  json.add("comm.sleeps", delta[obs::Pvar::CommSleeps]);
  json.add("comm.spin_iters", delta[obs::Pvar::CommSpinIters]);
  json.add("comm.fast_wakes", delta[obs::Pvar::CommFastWakes]);
  json.add("comm.steals", delta[obs::Pvar::CommSteals]);
  json.add("comm.inline_sends", delta[obs::Pvar::CommInlineSends]);
  json.add("comm.sleep_timeouts", delta[obs::Pvar::CommSleepTimeouts]);
  json.add("mpi.match.bin_hits", delta[obs::Pvar::MpiMatchBinHits]);
  json.add("mpi.match.list_scans", delta[obs::Pvar::MpiMatchListScans]);
  json.add("mpi.match.wildcard_fallbacks", delta[obs::Pvar::MpiMatchWildcardFallbacks]);
  json.add("mpi.match.parked", delta[obs::Pvar::MpiMatchParked]);
  json.add("mpi.match.pool_hits", delta[obs::Pvar::MpiMatchPoolHits]);
  json.add("mpi.match.pool_misses", delta[obs::Pvar::MpiMatchPoolMisses]);
  json.write("BENCH_table2.json");
  bench::obs_finish();
  return 0;
}

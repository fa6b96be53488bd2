// Ablation — commthread progress controller (paper §V): sweep the
// PAMIX_COMM_SPIN_US spin window across the latency-shaped (blocking
// ping-pong) and rate-shaped (isend burst + waitall) workloads and show
// what the adaptive spin-then-sleep engine actually did: how often the
// workers woke and slept, whether the bounded sleep ever had to rescue a
// lost wakeup (comm.sleep_timeouts — must stay 0), how much progress the
// blocking callers stole for themselves, and how many sends stayed inline.
//
// Arm 0 (PAMIX_COMM_SPIN_US=0) is the same engine with no spin window: a
// zero-event sweep goes straight to the wakeup-unit sleep. The
// classic/SINGLE row is the no-commthread reference the adaptive engine
// has to match (Table 2's acceptance bar).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mpi/mpi.h"

namespace {

using namespace pamix;

struct ArmStats {
  double pingpong_us = 0;
  double rate_mmps = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t steals = 0;
  std::uint64_t inline_sends = 0;
  std::uint64_t fast_wakes = 0;
};

/// Blocking 0-byte ping-pong, ThreadOpt/MULTIPLE (+commthreads unless
/// classic): the latency-shaped workload — every send is followed by a
/// blocking recv, so the steal window should keep the commthreads asleep.
double pingpong_us(bool commthreads, int iters) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  mpi::MpiConfig cfg;
  cfg.library = commthreads ? mpi::Library::ThreadOptimized : mpi::Library::Classic;
  cfg.commthreads =
      commthreads ? mpi::MpiConfig::Commthreads::ForceOn : mpi::MpiConfig::Commthreads::ForceOff;
  cfg.commthread_count = 2;
  mpi::MpiWorld world(machine, cfg);
  const auto level = commthreads ? mpi::ThreadLevel::Multiple : mpi::ThreadLevel::Single;
  double us = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(level);
    const mpi::Comm w = mp.world();
    const int me = mp.rank(w);
    const int peer = 1 - me;
    char dummy = 0;
    auto round = [&] {
      if (me == 0) {
        mp.send(&dummy, 0, peer, 0, w);
        mp.recv(&dummy, 0, peer, 0, w);
      } else {
        mp.recv(&dummy, 0, peer, 0, w);
        mp.send(&dummy, 0, peer, 0, w);
      }
    };
    for (int i = 0; i < 100; ++i) round();  // warmup
    bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) round();
    if (me == 0) us = sw.elapsed_us() / iters / 2.0;
    mp.finalize();
  });
  return us;
}

/// Isend burst + waitall, ThreadOpt/MULTIPLE + commthreads: the
/// rate-shaped workload — past a short inline streak, sends hand off to
/// the commthread, which pipelines descriptor construction.
double burst_rate_mmps(int msgs) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  mpi::MpiConfig cfg;
  cfg.commthreads = mpi::MpiConfig::Commthreads::ForceOn;
  mpi::MpiWorld world(machine, cfg);
  double mmps = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Multiple);
    const mpi::Comm w = mp.world();
    std::vector<mpi::Request> reqs;
    reqs.reserve(static_cast<std::size_t>(msgs));
    if (mp.rank(w) == 1) {
      for (int i = 0; i < msgs; ++i) reqs.push_back(mp.irecv(nullptr, 0, 0, 1, w));
      mp.barrier(w);
      mp.waitall(reqs);
      mp.barrier(w);
    } else {
      mp.barrier(w);
      bench::Stopwatch sw;
      for (int i = 0; i < msgs; ++i) reqs.push_back(mp.isend(nullptr, 0, 1, 1, w));
      mp.waitall(reqs);
      mp.barrier(w);
      mmps = msgs / sw.elapsed_us();
    }
    mp.finalize();
  });
  return mmps;
}

ArmStats run_arm(int spin_us, int iters, int msgs) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", spin_us);
  ::setenv("PAMIX_COMM_SPIN_US", buf, 1);
  bench::PvarPhase phase;
  ArmStats s;
  s.pingpong_us = pingpong_us(true, iters);
  s.rate_mmps = burst_rate_mmps(msgs);
  const auto d = phase.delta();
  ::unsetenv("PAMIX_COMM_SPIN_US");
  s.wakeups = d[obs::Pvar::CommWakeups];
  s.sleeps = d[obs::Pvar::CommSleeps];
  s.timeouts = d[obs::Pvar::CommSleepTimeouts];
  s.steals = d[obs::Pvar::CommSteals];
  s.inline_sends = d[obs::Pvar::CommInlineSends];
  s.fast_wakes = d[obs::Pvar::CommFastWakes];
  return s;
}

}  // namespace

int main() {
  using namespace pamix;
  bench::header("ABLATION — commthread spin-then-sleep controller (host clock)");

  const int kIters = bench::env_iters("PAMIX_ABLCOMM_ITERS", 2000);
  const int kMsgs = bench::env_iters("PAMIX_ABLCOMM_MSGS", 8000);
  const int kSpins[] = {0, 25, 100, 400};

  const double classic_us = pingpong_us(false, kIters);

  std::printf("%-18s %12s %12s %8s %8s %9s %8s %8s %8s\n", "arm", "pingpong(us)",
              "rate(Mm/s)", "wakes", "sleeps", "timeouts", "steals", "inline", "fastwk");
  std::printf("-------------------------------------------------------------------"
              "---------------------------------\n");
  std::printf("%-18s %12.3f %12s %8s %8s %9s %8s %8s %8s\n", "classic/SINGLE", classic_us,
              "-", "-", "-", "-", "-", "-", "-");

  ArmStats def{};
  std::uint64_t total_timeouts = 0;
  bench::JsonResult json;
  for (int spin : kSpins) {
    const ArmStats s = run_arm(spin, kIters, kMsgs);
    char name[32];
    std::snprintf(name, sizeof(name), "spin=%dus", spin);
    std::printf("%-18s %12.3f %12.2f %8llu %8llu %9llu %8llu %8llu %8llu\n", name,
                s.pingpong_us, s.rate_mmps, static_cast<unsigned long long>(s.wakeups),
                static_cast<unsigned long long>(s.sleeps),
                static_cast<unsigned long long>(s.timeouts),
                static_cast<unsigned long long>(s.steals),
                static_cast<unsigned long long>(s.inline_sends),
                static_cast<unsigned long long>(s.fast_wakes));
    char key[48];
    std::snprintf(key, sizeof(key), "spin%d_pingpong_us", spin);
    json.add(key, s.pingpong_us);
    std::snprintf(key, sizeof(key), "spin%d_wakeups", spin);
    json.add(key, s.wakeups);
    std::snprintf(key, sizeof(key), "spin%d_sleep_timeouts", spin);
    json.add(key, s.timeouts);
    if (spin == 100) def = s;
    total_timeouts += s.timeouts;
  }
  json.add("classic_single_us", classic_us);
  json.add("default_pingpong_us", def.pingpong_us);
  json.add("default_rate_mmps", def.rate_mmps);
  json.add("default_steals", def.steals);
  json.add("default_inline_sends", def.inline_sends);
  json.add("sleep_timeouts", total_timeouts);
  json.write("BENCH_commthread.json");

  std::printf("\n(Arm 0 has no spin window. Every arm keeps the workers asleep on\n"
              " latency-shaped traffic — blocking callers steal their own progress\n"
              " under a muted watch — so wakes stay flat as the spin window grows,\n"
              " and every expiry-with-work-pending would show up in the timeouts\n"
              " column.)\n");

  // Self-gates: the adaptive engine must not lose to the classic library
  // on its own latency workload (lenient margin: shared-host noise), and
  // a nonzero sleep-timeout count means a wakeup was lost — the bounded
  // sleep is a safety net, not a progress mechanism.
  bool ok = true;
  if (def.pingpong_us > classic_us * 1.35) {
    std::fprintf(stderr,
                 "ablate_commthread: FAIL adaptive pingpong %.3f us vs classic %.3f us "
                 "(> 1.35x)\n",
                 def.pingpong_us, classic_us);
    ok = false;
  }
  if (total_timeouts != 0) {
    std::fprintf(stderr,
                 "ablate_commthread: FAIL comm.sleep_timeouts = %llu (expected 0: every "
                 "wake must come from a watch or doorbell, never the 50ms backstop)\n",
                 static_cast<unsigned long long>(total_timeouts));
    ok = false;
  }
  bench::obs_finish();
  return ok ? 0 : 1;
}

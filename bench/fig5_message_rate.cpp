// Figure 5 — PAMI and MPI message rate (MMPS) at the reference node of a
// 32-node block, sweeping processes per node.
//
//   Paper: PAMI reaches 107 MMPS at 32 ppn; MPI (classic, no commthreads)
//   reaches 22.9 MMPS at 32 ppn; commthreads accelerate MPI by up to 2.4x
//   at ppn=1 (16 helpers), best absolute 18.7 MMPS at ppn=16; wildcard
//   receives cost extra matching; commthreads are not enabled at 32 ppn.
//
// The sweep composes the calibrated per-message costs with the simulated
// node packet ceiling; a functional host run then measures a real
// message-rate microbenchmark (PAMI sends + MPI isend/irecv with source
// ranks, wildcards, and commthread handoff) to verify the orderings.
//
// With PAMIX_OBS=on each host phase also prints its pvar delta, and main
// exports the merged trace rings to PAMIX_TRACE_FILE (chrome://tracing).
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mpi/mpi.h"
#include "sim/mpi_model.h"

namespace {

using namespace pamix;

/// Host functional message rate: `msgs` 0-byte sends task0 -> task1 with
/// posted receives, measured end to end. Returns million messages/sec.
/// `commthreads` forces the commthread pool on and initialises at
/// THREAD_MULTIPLE so sends ride the post/handoff path (paper §IV-A).
double host_mpi_rate_mmps(bool wildcard, int msgs, bool commthreads = false) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  mpi::MpiConfig cfg;
  if (commthreads) cfg.commthreads = mpi::MpiConfig::Commthreads::ForceOn;
  mpi::MpiWorld world(machine, cfg);
  const auto level = commthreads ? mpi::ThreadLevel::Multiple : mpi::ThreadLevel::Single;
  double mmps = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(level);
    const mpi::Comm w = mp.world();
    if (mp.rank(w) == 1) {
      std::vector<mpi::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(msgs));
      for (int i = 0; i < msgs; ++i) {
        reqs.push_back(mp.irecv(nullptr, 0, wildcard ? mpi::kAnySource : 0, 1, w));
      }
      mp.barrier(w);  // paper: barrier after receives are posted
      mp.waitall(reqs);
      mp.barrier(w);
    } else {
      mp.barrier(w);
      bench::Stopwatch sw;
      std::vector<mpi::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(msgs));
      for (int i = 0; i < msgs; ++i) {
        reqs.push_back(mp.isend(nullptr, 0, 1, 1, w));
      }
      mp.waitall(reqs);
      mp.barrier(w);
      mmps = msgs / sw.elapsed_us();
    }
    mp.finalize();
  });
  return mmps;
}

/// Matching-engine A/B at 4 contexts: the receiver pre-posts a deep queue
/// of `depth` receives with distinct tags, and the sender sends them in
/// *reverse* tag order, so every arrival under PAMIX_MPI_MATCH=list walks
/// O(depth) posted nodes while the hashed-bin matcher resolves each in
/// O(1). The knob is read at matcher construction, so it is set before the
/// world is built and the two arms run in one process.
/// `measured_delta` receives the pvar delta of the measured rounds only —
/// in steady state the bins arm's mpi.match.pool_misses must be zero (the
/// strict-alloc CI gate checks this).
double host_mpi_match_rate_mmps(const char* match_mode, int depth, int rounds,
                                obs::PvarSnapshot* measured_delta) {
  setenv("PAMIX_MPI_MATCH", match_mode, 1);
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  mpi::MpiConfig cfg;
  cfg.contexts_per_task = 4;
  cfg.commthreads = mpi::MpiConfig::Commthreads::ForceOff;
  mpi::MpiWorld world(machine, cfg);
  unsetenv("PAMIX_MPI_MATCH");
  double mmps = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Multiple);
    const mpi::Comm w = mp.world();
    auto round = [&] {
      // Leading barrier: no rank starts a round until both finished the
      // previous statement, so the receiver cannot post into the measured
      // window before the sender's PvarPhase baseline is taken.
      mp.barrier(w);
      std::vector<mpi::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(depth));
      if (mp.rank(w) == 1) {
        for (int t = 0; t < depth; ++t) {
          reqs.push_back(mp.irecv(nullptr, 0, 0, t, w));
        }
        mp.barrier(w);
      } else {
        mp.barrier(w);  // the whole queue is posted before the first send
        for (int t = depth - 1; t >= 0; --t) {
          reqs.push_back(mp.isend(nullptr, 0, 1, t, w));
        }
      }
      mp.waitall(reqs);
      mp.barrier(w);
    };
    round();  // warm-up: node freelists and peer tables fill
    bench::PvarPhase measured;
    bench::Stopwatch sw;
    for (int r = 0; r < rounds; ++r) round();
    if (mp.rank(w) == 0) {
      mmps = static_cast<double>(depth) * rounds / sw.elapsed_us();
      if (measured_delta != nullptr) *measured_delta = measured.delta();
    }
    mp.finalize();
  });
  return mmps;
}

double host_pami_rate_mmps(int msgs) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  pami::ClientWorld world(machine, pami::ClientConfig{});
  pami::Context& c0 = world.client(0).context(0);
  pami::Context& c1 = world.client(1).context(0);
  int received = 0;
  c1.set_dispatch(1, [&](pami::Context&, const void*, std::size_t, const void*, std::size_t,
                         std::size_t, pami::Endpoint, pami::RecvDescriptor*) { ++received; });
  bench::Stopwatch sw;
  for (int i = 0; i < msgs; ++i) {
    while (c0.send_immediate(1, pami::Endpoint{1, 0}, nullptr, 0, nullptr, 0) !=
           pami::Result::Success) {
      c1.advance();
    }
    if ((i & 63) == 0) c1.advance();
  }
  while (received < msgs) c1.advance();
  return msgs / sw.elapsed_us();
}

/// Pooled-payload phase: 64-byte eager sends, with a warm-up pass so the
/// staging pools are primed before measurement. `measured_delta` receives
/// the pvar delta of the measured pass only — in steady state its
/// alloc.pool_misses must be zero (the strict-alloc CI gate checks this).
double host_pami_rate_64b_mmps(int msgs, obs::PvarSnapshot* measured_delta) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  pami::ClientWorld world(machine, pami::ClientConfig{});
  pami::Context& c0 = world.client(0).context(0);
  pami::Context& c1 = world.client(1).context(0);
  int received = 0;
  c1.set_dispatch(1, [&](pami::Context&, const void*, std::size_t, const void*, std::size_t,
                         std::size_t, pami::Endpoint, pami::RecvDescriptor*) { ++received; });
  std::vector<std::byte> payload(64, std::byte{0x42});
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      pami::SendParams p;
      p.dispatch = 1;
      p.dest = pami::Endpoint{1, 0};
      p.data = payload.data();
      p.data_bytes = payload.size();
      while (c0.send(p) == pami::Result::Eagain) c1.advance();
      if ((i & 63) == 0) c1.advance();
    }
  };
  const int warmup = std::min(msgs / 10 + 1, 1000);
  run(warmup);
  while (received < warmup) c1.advance();

  bench::PvarPhase measured;
  bench::Stopwatch sw;
  run(msgs);
  while (received < warmup + msgs) c1.advance();
  const double mmps = msgs / sw.elapsed_us();
  if (measured_delta != nullptr) *measured_delta = measured.delta();
  return mmps;
}

}  // namespace

int main() {
  bench::header("FIGURE 5 — message rate at the reference node (MMPS), 32 nodes");

  sim::MpiModel model(bench::paper_32(), sim::BgqCostModel{});
  std::printf("%-6s %12s %12s %16s %18s %14s\n", "ppn", "PAMI", "MPI", "MPI+commthr",
              "MPI+commthr(wc)", "speedup");
  std::printf("----------------------------------------------------------------------------------\n");
  for (int ppn : {1, 2, 4, 8, 16, 32}) {
    const double pami = model.pami_message_rate_mmps(ppn);
    const double mpi_rate = model.mpi_message_rate_mmps(ppn);
    // Paper: commthreads not enabled at 32 ppn.
    const double comm =
        ppn < 32 ? model.mpi_message_rate_commthread_mmps(ppn) : mpi_rate;
    const double comm_wc =
        ppn < 32 ? model.mpi_message_rate_commthread_mmps(ppn, true)
                 : model.mpi_message_rate_mmps(ppn, true);
    std::printf("%-6d %12.1f %12.1f %16.1f %18.1f %13.2fx\n", ppn, pami, mpi_rate, comm,
                comm_wc, comm / mpi_rate);
  }
  std::printf("\nPaper anchors: PAMI 107 MMPS @32ppn; MPI 22.9 MMPS @32ppn; "
              "2.4x commthread speedup @1ppn; best 18.7 MMPS @16ppn.\n");

  std::printf("\nFunctional host run (real stacks, host clock, 1 process pair):\n");
  const int kPamiMsgs = bench::env_iters("PAMIX_FIG5_MSGS", 200000);
  const int kMpiMsgs = std::max(kPamiMsgs / 4, 1);
  bench::PvarPhase pami_phase;
  const double pami_host = host_pami_rate_mmps(kPamiMsgs);
  const auto pami_delta = pami_phase.delta();
  pami_phase.report("PAMI send_immediate phase");

  obs::PvarSnapshot pooled_delta;
  const double pami_host_64 = host_pami_rate_64b_mmps(kPamiMsgs, &pooled_delta);

  bench::PvarPhase mpi_phase;
  const double mpi_host = host_mpi_rate_mmps(false, kMpiMsgs);
  mpi_phase.report("MPI isend/irecv phase");

  const double mpi_host_wc = host_mpi_rate_mmps(true, kMpiMsgs);

  bench::PvarPhase comm_phase;
  const double mpi_host_ct = host_mpi_rate_mmps(false, kMpiMsgs, /*commthreads=*/true);
  const auto comm_delta = comm_phase.delta();
  comm_phase.report("MPI commthread-handoff phase");

  // Matching-engine A/B: same deep-posted-queue workload, 4 contexts,
  // list (the paper's serialized queue) vs hashed bins.
  const int kDepth = std::min(kMpiMsgs, 1024);
  const int kRounds = std::max(kMpiMsgs / kDepth / 4, 1);
  obs::PvarSnapshot list_delta, bins_delta;
  const double match_list =
      host_mpi_match_rate_mmps("list", kDepth, kRounds, &list_delta);
  const double match_bins =
      host_mpi_match_rate_mmps("bins", kDepth, kRounds, &bins_delta);

  std::printf("  PAMI send_immediate rate : %8.2f Mmsg/s\n", pami_host);
  std::printf("  PAMI 64B pooled eager    : %8.2f Mmsg/s\n", pami_host_64);
  std::printf("  MPI isend/irecv rate     : %8.2f Mmsg/s\n", mpi_host);
  std::printf("  MPI with ANY_SOURCE      : %8.2f Mmsg/s\n", mpi_host_wc);
  std::printf("  MPI with commthreads     : %8.2f Mmsg/s\n", mpi_host_ct);
  std::printf("  shape: PAMI > MPI: %s; wildcard <= source-ranked: %s\n",
              pami_host > mpi_host ? "OK" : "UNEXPECTED",
              mpi_host_wc <= mpi_host * 1.10 ? "OK" : "UNEXPECTED");
  std::printf("  progress engine: commthreads > single-thread: %s\n",
              mpi_host_ct > mpi_host ? "OK" : "MISS");

  std::printf("\nMatching engine A/B (4 contexts, %d-deep posted queue x %d rounds):\n",
              kDepth, kRounds);
  std::printf("  PAMIX_MPI_MATCH=list     : %8.2f Mmsg/s (%llu nodes walked)\n", match_list,
              static_cast<unsigned long long>(list_delta[obs::Pvar::MpiMatchListScans]));
  std::printf("  PAMIX_MPI_MATCH=bins     : %8.2f Mmsg/s (%llu bin hits)\n", match_bins,
              static_cast<unsigned long long>(bins_delta[obs::Pvar::MpiMatchBinHits]));
  std::printf("  speedup                  : %8.2fx  bins > list: %s\n",
              match_bins / match_list, match_bins > match_list ? "OK" : "UNEXPECTED");
  std::printf("  bins arm: pool hits=%llu misses=%llu wildcard fallbacks=%llu\n",
              static_cast<unsigned long long>(bins_delta[obs::Pvar::MpiMatchPoolHits]),
              static_cast<unsigned long long>(bins_delta[obs::Pvar::MpiMatchPoolMisses]),
              static_cast<unsigned long long>(
                  bins_delta[obs::Pvar::MpiMatchWildcardFallbacks]));

  // Accounting check: every message of the PAMI phase must appear in the
  // send pvars exactly once (eager, rendezvous, or shm).
  const std::uint64_t pami_sends = pami_delta[obs::Pvar::SendsEager] +
                                   pami_delta[obs::Pvar::SendsRdzv] +
                                   pami_delta[obs::Pvar::SendsShm];
  std::printf("  pvar accounting: eager+rdzv+shm sends = %llu, messages sent = %d: %s\n",
              static_cast<unsigned long long>(pami_sends), kPamiMsgs,
              pami_sends == static_cast<std::uint64_t>(kPamiMsgs) ? "OK" : "MISMATCH");

  // Steady-state pool behaviour of the measured (post-warm-up) 64B phase.
  const std::uint64_t pool_hits = pooled_delta[obs::Pvar::AllocPoolHits];
  const std::uint64_t pool_misses = pooled_delta[obs::Pvar::AllocPoolMisses];
  const std::uint64_t heap_fallbacks = pooled_delta[obs::Pvar::AllocHeapFallbacks];
  std::printf("  pool accounting (64B measured phase): hits=%llu misses=%llu heap=%llu\n",
              static_cast<unsigned long long>(pool_hits),
              static_cast<unsigned long long>(pool_misses),
              static_cast<unsigned long long>(heap_fallbacks));

  bench::JsonResult json;
  json.add("pami_immediate_mmps", pami_host);
  json.add("pami_64b_pooled_mmps", pami_host_64);
  json.add("mpi_mmps", mpi_host);
  json.add("mpi_wildcard_mmps", mpi_host_wc);
  json.add("mpi_commthread_mmps", mpi_host_ct);
  // Progress-engine telemetry for the commthread phase: short isend
  // streaks stay inline (comm.inline_sends), blocking waits steal progress
  // (comm.steals), and the bounded sleep never has to rescue a lost
  // wakeup (comm.sleep_timeouts ~ 0).
  json.add("comm.wakeups", comm_delta[obs::Pvar::CommWakeups]);
  json.add("comm.sleeps", comm_delta[obs::Pvar::CommSleeps]);
  json.add("comm.spin_iters", comm_delta[obs::Pvar::CommSpinIters]);
  json.add("comm.fast_wakes", comm_delta[obs::Pvar::CommFastWakes]);
  json.add("comm.steals", comm_delta[obs::Pvar::CommSteals]);
  json.add("comm.inline_sends", comm_delta[obs::Pvar::CommInlineSends]);
  json.add("comm.sleep_timeouts", comm_delta[obs::Pvar::CommSleepTimeouts]);
  json.add("mpi_match_list_mmps", match_list);
  json.add("mpi_match_bins_mmps", match_bins);
  json.add("mpi_match_speedup", match_bins / match_list);
  json.add("mpi_match_depth", static_cast<std::uint64_t>(kDepth));
  json.add("mpi.match.bin_hits", bins_delta[obs::Pvar::MpiMatchBinHits]);
  json.add("mpi.match.list_scans", list_delta[obs::Pvar::MpiMatchListScans]);
  json.add("mpi.match.wildcard_fallbacks", bins_delta[obs::Pvar::MpiMatchWildcardFallbacks]);
  json.add("mpi.match.parked", bins_delta[obs::Pvar::MpiMatchParked]);
  json.add("mpi.match.pool_hits", bins_delta[obs::Pvar::MpiMatchPoolHits]);
  json.add("mpi.match.pool_misses", bins_delta[obs::Pvar::MpiMatchPoolMisses]);
  json.add("messages", static_cast<std::uint64_t>(kPamiMsgs));
  json.add("alloc.pool_hits", pool_hits);
  json.add("alloc.pool_misses", pool_misses);
  json.add("alloc.heap_fallbacks", heap_fallbacks);
  json.add("work.posts", pooled_delta[obs::Pvar::WorkPosts]);
  json.add("work.items_drained", pooled_delta[obs::Pvar::WorkItemsDrained]);
  json.write("BENCH_fig5.json");

  bench::obs_finish();

  // CI gate: with PAMIX_BENCH_STRICT_ALLOC set, a pool miss in the
  // measured steady-state phase is a regression (something on the fast
  // path stopped recycling), and the run fails loudly.
  if (std::getenv("PAMIX_BENCH_STRICT_ALLOC") != nullptr && pool_misses > 0) {
    std::fprintf(stderr,
                 "fig5: PAMIX_BENCH_STRICT_ALLOC: %llu pool misses in the measured "
                 "steady-state phase (expected 0)\n",
                 static_cast<unsigned long long>(pool_misses));
    return 1;
  }
  // Same gate for the matching engine: a steady-state match-node pool miss
  // means a node stopped recycling through its shard freelist.
  const std::uint64_t match_misses = bins_delta[obs::Pvar::MpiMatchPoolMisses];
  if (std::getenv("PAMIX_BENCH_STRICT_ALLOC") != nullptr && match_misses > 0) {
    std::fprintf(stderr,
                 "fig5: PAMIX_BENCH_STRICT_ALLOC: %llu mpi.match.pool_misses in the "
                 "measured matching phase (expected 0)\n",
                 static_cast<unsigned long long>(match_misses));
    return 1;
  }
  return 0;
}

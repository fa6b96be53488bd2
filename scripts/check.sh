#!/usr/bin/env bash
# Tier-1 verification: build + full test suite across the supported build
# flavours:
#   obs-on   — default configuration (PAMIX_OBS=ON), warnings as errors
#              (-DPAMIX_WERROR=ON)
#   obs-off  — tracer compiled out (-DPAMIX_OBS=OFF); pvar-backed
#              accessors must keep working
#   sanitize — ASan + UBSan (-DPAMIX_SANITIZE=ON), catching lifetime and
#              UB bugs the protocol/device layer could otherwise hide
#   sanitize-thread — TSan (-DPAMIX_SANITIZE=thread) on the threaded
#              endpoint and matching stress tests: the endpoint fast
#              path's zero-shared-state claim, the request pool's
#              cross-thread release stack, and the sharded matcher all
#              run under the race detector; so do the commthread stress
#              tests (incl. the rendezvous waitall vs idle-sweep race),
#              the BufferPool reclaim-stack and teardown races, the
#              zero-allocation steady-state suite, all of test_hw,
#              the collective-network engine (per-round locks, rounds
#              pipelined from two threads), and the idle-advance tests
#              (the MU backlog mask and the shm staged count, both read
#              by commthread sleep checks while their owner writes them;
#              InjectionBacklog* also pins that a backlogged context is
#              polled, not slept on); test_hw includes the hw::Waiter
#              tests (per-thread budget, pinned two-thread turn taking)
#   bench-smoke — build the obs-on tree and run fig5 with a tiny message
#              count under PAMIX_BENCH_STRICT_ALLOC: any steady-state pool
#              miss (a zero-allocation fast-path regression) fails the run;
#              then the fast-path microbenches, incl. the per-release
#              (BufferPool), per-packet (MuInject) and idle advance pass
#              (ContextAdvanceIdle) costs
#   coll-smoke — run the collective harnesses (fig7 allreduce, fig9 bcast)
#              with tiny iteration counts under PAMIX_BENCH_STRICT_ALLOC:
#              verifies data, the software-path zero-alloc steady state,
#              and that both emit their BENCH_fig{7,9}.json results
#   mpi-rate-smoke — run the MPI message-rate harnesses (fig5 incl. the
#              PAMIX_MPI_MATCH list/bins A/B, table3 neighbor throughput)
#              at reduced scale under PAMIX_BENCH_STRICT_ALLOC: any pool
#              miss on the matching engine's steady-state path fails the
#              run, and both must emit their BENCH_*.json results
#   commthread-smoke — run the commthread progress-engine leg: the
#              table2 latency harness and the ablate_commthread spin sweep
#              (spin=0 is the engine with no spin window) at reduced
#              iteration counts.
#              ablate_commthread self-gates: adaptive ping-pong must not
#              lose to classic/SINGLE by more than its noise margin and
#              comm.sleep_timeouts must be exactly 0 (a nonzero count
#              means a wakeup was lost and the 50ms bounded sleep rescued
#              progress)
#   pinned — table2, amrpc_soak and ablate_commthread with every thread
#              pinned to one CPU (taskset -c 0): the same smoke envs,
#              self-gates (adaptive <= classic/SINGLE, comm.sleep_timeouts
#              == 0, strict alloc) and perf-regress floors as the unpinned
#              legs, on the host shape where a spinning waiter can only
#              delay the thread it waits for
#   sim-smoke — run the DES transport backend leg: the backend/scenario
#              unit tests plus scale_scenarios at the 32/64-node calibration
#              geometries (PAMIX_SCALE_SMOKE=1). Virtual time is exact, so
#              the smoke keys must reproduce the committed BENCH_scale.json
#              baseline bit-for-bit modulo float printing. Also runs the
#              512-node cut-through rectangle-broadcast gate
#              (PAMIX_RECTCHUNK_GATE=1): the default chunk size must hold
#              the >= 9x multicolor-vs-single-path speedup
#   perf-regress — scripts/bench.sh --smoke --check: run every JSON-emitting
#              bench, merge BENCH_report.json, and compare throughput keys
#              against the committed repo-root baselines. The tolerance is
#              opened to 50% here because shared CI runners are far noisier
#              than the machines the baselines were recorded on; run
#              scripts/bench.sh --check (10% default) on a quiet host for
#              the tight contract. Strict-alloc misses fail at any tolerance.
#
# Usage: scripts/check.sh [flavor...]          (default: all eleven)
#        PREFIX=dir scripts/check.sh           (build-dir prefix, default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${PREFIX:-build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

flavors=("$@")
if [ ${#flavors[@]} -eq 0 ]; then
  flavors=(obs-on obs-off sanitize sanitize-thread bench-smoke coll-smoke mpi-rate-smoke commthread-smoke pinned sim-smoke perf-regress)
fi

run_flavor() {
  local name="$1" dir="$2"
  shift 2
  echo "==> [${name}] configure + build + tests"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

for flavor in "${flavors[@]}"; do
  case "${flavor}" in
    obs-on)
      run_flavor obs-on "${prefix}" -DPAMIX_WERROR=ON ;;
    obs-off)
      run_flavor obs-off "${prefix}-obs-off" -DPAMIX_OBS=OFF ;;
    sanitize)
      run_flavor sanitize "${prefix}-sanitize" -DPAMIX_SANITIZE=ON ;;
    sanitize-thread)
      echo "==> [sanitize-thread] TSan build + threaded endpoint/matching stress"
      cmake -B "${prefix}-tsan" -S . -DCMAKE_BUILD_TYPE=Release -DPAMIX_SANITIZE=thread
      cmake --build "${prefix}-tsan" -j "${jobs}" \
        --target test_mpi test_core test_alloc_steadystate test_hw test_runtime test_proto
      "${prefix}-tsan/tests/test_mpi" \
        --gtest_filter='MpiEndpoints.*:RequestPoolEndpoints.*:MatcherEndpoints.*:*Threading*:*MatchStress*:*Stress*'
      "${prefix}-tsan/tests/test_core" --gtest_filter='BufferPool*'
      "${prefix}-tsan/tests/test_alloc_steadystate" --gtest_filter='AllocSteadyState*'
      "${prefix}-tsan/tests/test_hw"
      "${prefix}-tsan/tests/test_runtime" --gtest_filter='CollectiveEngine*'
      "${prefix}-tsan/tests/test_proto" --gtest_filter='InjectionBacklog*:IdleAdvance*' ;;
    bench-smoke)
      echo "==> [bench-smoke] fig5 strict-alloc gate + fast-path microbenches"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target fig5_message_rate gbench_primitives
      ( cd "${prefix}" &&
        PAMIX_FIG5_MSGS=2000 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/fig5_message_rate )
      test -s "${prefix}/BENCH_fig5.json"
      "${prefix}/bench/gbench_primitives" \
        --benchmark_filter='InlineFn|BufferPool|WorkQueue_PostAdvance|EagerRoundTrip|MuInject|ContextAdvanceIdle' \
        --benchmark_min_time=0.05 ;;
    coll-smoke)
      echo "==> [coll-smoke] fig7/fig9 collective pipeline + strict-alloc gate"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target fig7_allreduce_latency fig9_bcast_bw
      ( cd "${prefix}" &&
        PAMIX_FIG7_ITERS=50 PAMIX_FIG7_BW_ITERS=2 PAMIX_FIG7_SW_ITERS=64 \
        PAMIX_BENCH_STRICT_ALLOC=1 ./bench/fig7_allreduce_latency )
      test -s "${prefix}/BENCH_fig7.json"
      ( cd "${prefix}" &&
        PAMIX_FIG9_ITERS=2 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/fig9_bcast_bw )
      test -s "${prefix}/BENCH_fig9.json" ;;
    mpi-rate-smoke)
      echo "==> [mpi-rate-smoke] fig5 matching A/B + table3 throughput, strict-alloc gate"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target fig5_message_rate table3_neighbor_throughput
      ( cd "${prefix}" &&
        PAMIX_FIG5_MSGS=2000 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/fig5_message_rate )
      test -s "${prefix}/BENCH_fig5.json"
      ( cd "${prefix}" &&
        PAMIX_TABLE3_KB=64 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/table3_neighbor_throughput )
      test -s "${prefix}/BENCH_table3.json" ;;
    commthread-smoke)
      echo "==> [commthread-smoke] adaptive progress engine: table2 + spin sweep"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target table2_mpi_latency ablate_commthread
      ( cd "${prefix}" &&
        PAMIX_TABLE2_ITERS=300 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/table2_mpi_latency )
      test -s "${prefix}/BENCH_table2.json"
      ( cd "${prefix}" &&
        PAMIX_ABLCOMM_ITERS=300 PAMIX_ABLCOMM_MSGS=2000 ./bench/ablate_commthread )
      test -s "${prefix}/BENCH_commthread.json" ;;
    pinned)
      echo "==> [pinned] table2 + amrpc + commthread sweep on one CPU, with perf floors"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target table2_mpi_latency amrpc_soak ablate_commthread
      PREFIX="${prefix}" taskset -c 0 scripts/bench.sh --smoke --check --tolerance 0.5 \
        table2 amrpc commthread ;;
    sim-smoke)
      echo "==> [sim-smoke] DES transport backend: unit tests + scale calibration run"
      cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "${prefix}" -j "${jobs}" --target test_sim test_runtime scale_scenarios ablate_rect_chunk
      "${prefix}/tests/test_runtime" --gtest_filter='DesNetwork*'
      "${prefix}/tests/test_sim" --gtest_filter='Scenario.*:MpiModel.*'
      ( cd "${prefix}" &&
        PAMIX_SCALE_SMOKE=1 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/scale_scenarios )
      test -s "${prefix}/BENCH_scale.json"
      ( cd "${prefix}" &&
        PAMIX_RECTCHUNK_GATE=1 PAMIX_BENCH_STRICT_ALLOC=1 ./bench/ablate_rect_chunk )
      test -s "${prefix}/BENCH_rectchunk.json" ;;
    perf-regress)
      echo "==> [perf-regress] unified bench run + baseline comparison"
      PREFIX="${prefix}" scripts/bench.sh --smoke --check --tolerance 0.5
      test -s "${prefix}/BENCH_report.json" ;;
    *)
      echo "unknown flavor: ${flavor} (expected obs-on, obs-off, sanitize, sanitize-thread, bench-smoke, coll-smoke, mpi-rate-smoke, commthread-smoke, pinned, sim-smoke, perf-regress)" >&2
      exit 2 ;;
  esac
done

echo "==> all checks passed"

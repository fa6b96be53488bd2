// pamibench — one command, four workloads, every number by name and unit.
//
//   pamibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--git-sha <sha>] [--source-hash <hash>]
//   pamibench --workload <name> --seed <n> --plan-hash
//
// Prints a detail line ({"pamibench": {...}}: host block, sample counts,
// self-checks) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1 on a wrong result or a failed self-check,
// 2 on bad arguments or too few cores, 3 when the watchdog fires.
#include <sched.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

extern char** environ;

namespace pamibench {

using pamix::obs::Pvar;

// ------------------------------------------------------------- harness ---

const char* span_metric(SpanName n) {
  static const char* const kNames[kSpanNames] = {
      "op",          "mpi.send_ns",         "mpi.recv_ns",          "mpi.isend_ns",
      "mpi.irecv_ns", "mpi.waitall_ns",     "mpi.allreduce_small_ns", "mpi.allreduce_large_ns",
      "mpi.allreduce_sw_ns", "am.call_ns", "core.advance_ns",
  };
  return kNames[static_cast<std::size_t>(n)];
}

const char* span_layer(SpanName n) {
  switch (n) {
    case SpanName::Op:
      return "bench";
    case SpanName::AmCall:
      return "am";
    case SpanName::CoreAdvance:
      return "core";
    default:
      return "mpi";
  }
}

Beat& beat(int thread) {
  static Beat beats[kMaxThreads];
  return beats[thread % kMaxThreads];
}

Phase total(const std::vector<Phase>& slices) {
  Phase t;
  for (const Phase& p : slices) {
    t.attempted += p.attempted;
    t.failed += p.failed;
    t.lead_ops += p.lead_ops;
    t.payload_bytes += p.payload_bytes;
    t.seconds += p.seconds;
    t.latency.insert(t.latency.end(), p.latency.begin(), p.latency.end());
    t.ns_per_unit = p.ns_per_unit;
    t.delta.sw += p.delta.sw;
    t.delta.mu += p.delta.mu;
    t.mpi_unexpected += p.mpi_unexpected;
    t.mpi_received += p.mpi_received;
  }
  return t;
}

Counters read_counters() {
  Counters c;
  pamix::obs::Registry::instance().for_each([&](const pamix::obs::Domain& d) {
    const bool mu = d.name.size() > 3 && d.name.compare(d.name.size() - 3, 3, ".mu") == 0;
    (mu ? c.mu : c.sw) += d.pvars.snapshot();
  });
  return c;
}

namespace {

std::atomic<const char*> g_phase{"set-up"};
const char* g_workload = "";

// ------------------------------------------------------------ watchdog ---
//
// SIGALRM once a second. If no driving thread completed an op for
// kStallSeconds, or the whole run passed kHardLimitSeconds, the ops still
// pending count as failed: print the diagnosis and a failing result line,
// and exit 3 instead of hanging.

constexpr int kStallSeconds = 15;
constexpr int kHardLimitSeconds = 150;
int g_ticks = 0, g_stalled = 0;
std::uint64_t g_last_done = ~0ull;

void watchdog_tick(int) {
  std::uint64_t issued = 0, done = 0;
  for (int t = 0; t < kMaxThreads; ++t) {
    issued += beat(t).issued.load(std::memory_order_relaxed);
    done += beat(t).done.load(std::memory_order_relaxed);
  }
  g_stalled = done == g_last_done ? g_stalled + 1 : 0;
  g_last_done = done;
  if (g_stalled < kStallSeconds && ++g_ticks < kHardLimitSeconds) return;
  char buf[512];
  const std::uint64_t pending = issued - done;
  int n = std::snprintf(buf, sizeof buf,
                        "pamibench: watchdog: %s during %s %s: %llu ops issued, %llu done, "
                        "%llu pending (counted as failed)\n",
                        g_stalled >= kStallSeconds ? "no progress for 15 s" : "run over 150 s",
                        g_workload, g_phase.load(), static_cast<unsigned long long>(issued),
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(pending));
  if (n > 0) (void)!write(2, buf, static_cast<std::size_t>(n));
  n = std::snprintf(buf, sizeof buf,
                    "{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {}}\n",
                    static_cast<unsigned long long>(issued > 0 ? issued : 1),
                    static_cast<unsigned long long>(pending > 0 ? pending : 1));
  if (n > 0) (void)!write(1, buf, static_cast<std::size_t>(n));
  _exit(3);
}

void start_watchdog() {
  struct sigaction sa {};
  sa.sa_handler = watchdog_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  itimerval it{};
  it.it_interval.tv_sec = 1;
  it.it_value.tv_sec = 1;
  setitimer(ITIMER_REAL, &it, nullptr);
}

// -------------------------------------------------------------- output ---

/// Ordered name -> (value, unit) list printed as one JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(items_[i].value) ? items_[i].value : 0);
      s += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

std::string json_string(const std::string& v) {
  std::string s = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      s += '\\';
      s += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      s += ' ';
    } else {
      s += c;
    }
  }
  return s + "\"";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The end-to-end numbers of one phase.
struct EndToEnd {
  double p50_us = 0, tail_us = 0, tail_q = 0, ops_s = 0, mb_s = 0;
  std::size_t samples = 0;
};

EndToEnd end_to_end(Phase& ph) {
  EndToEnd e;
  e.samples = ph.latency.size();
  e.tail_q = tail_quantile_for(e.samples);
  e.p50_us = quantile(ph.latency, 0.5) * ph.ns_per_unit * 1e-3;
  e.tail_us = quantile(ph.latency, e.tail_q) * ph.ns_per_unit * 1e-3;
  const std::uint64_t ok = ph.attempted - ph.failed;
  e.ops_s = ratio(static_cast<double>(ok), ph.seconds);
  e.mb_s = ratio(static_cast<double>(ph.payload_bytes) * 1e-6, ph.seconds);
  return e;
}

/// Per-span-name duration statistics (all threads) and per-layer self time
/// on task 0's thread, the one that drives the ops. Self time is a span's
/// duration minus its children's.
struct SpanStats {
  double mean_ns[kSpanNames] = {};
  double p50_ns[kSpanNames] = {};
  std::map<std::string, double> layer_self_ns;
};

SpanStats span_stats(Tracer& tr) {
  SpanStats st;
  std::vector<std::uint32_t> durs[kSpanNames];
  for (int t = 0; t < tr.threads(); ++t) {
    const SpanRecorder& r = *tr.at(t);
    std::vector<std::uint64_t> child(r.size(), 0);
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i].parent != kNoSpan) child[r[i].parent] += r[i].dur_ns;
    }
    for (std::size_t i = 0; i < r.size(); ++i) {
      durs[static_cast<std::size_t>(r[i].name)].push_back(r[i].dur_ns);
      if (t != 0) continue;
      const double self = static_cast<double>(r[i].dur_ns) - static_cast<double>(child[i]);
      st.layer_self_ns[span_layer(r[i].name)] += self;
    }
  }
  for (std::size_t n = 0; n < kSpanNames; ++n) {
    double sum = 0;
    for (std::uint32_t d : durs[n]) sum += d;
    st.mean_ns[n] = ratio(sum, static_cast<double>(durs[n].size()));
    st.p50_ns[n] = quantile(durs[n], 0.5);
  }
  return st;
}

/// Raw spans for offline analysis: "PAMISPN1", u32 thread count, then per
/// thread a u64 span count and packed records of
///   u64 start_ns, u32 dur_ns, u32 parent, u32 op, u8 name.
bool write_spans(Tracer& tr, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite("PAMISPN1", 1, 8, f);
  const std::uint32_t threads = static_cast<std::uint32_t>(tr.threads());
  std::fwrite(&threads, sizeof threads, 1, f);
  for (int t = 0; t < tr.threads(); ++t) {
    const SpanRecorder& r = *tr.at(t);
    const std::uint64_t n = r.size();
    std::fwrite(&n, sizeof n, 1, f);
    for (std::size_t i = 0; i < r.size(); ++i) {
      unsigned char rec[21];
      std::memcpy(rec, &r[i].start_ns, 8);
      std::memcpy(rec + 8, &r[i].dur_ns, 4);
      std::memcpy(rec + 12, &r[i].parent, 4);
      std::memcpy(rec + 16, &r[i].op, 4);
      rec[20] = static_cast<unsigned char>(r[i].name);
      std::fwrite(rec, 1, sizeof rec, f);
    }
  }
  return std::fclose(f) == 0;
}

int affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  return CPU_COUNT(&set);
}

std::string host_block(const std::string& git_sha, const std::string& source_hash) {
  std::string s = "{\"git_sha\": " + json_string(git_sha) +
                  ", \"source_hash\": " + json_string(source_hash) +
                  ", \"compiler\": " + json_string(PAMIBENCH_COMPILER) +
                  ", \"build_type\": " + json_string(PAMIBENCH_BUILD_TYPE) +
                  ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                  ", \"affinity_cores\": " + std::to_string(affinity_cores()) +
                  ", \"pamix_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PAMIX_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    const std::string key(*e, static_cast<std::size_t>(eq - *e));
    s += (first ? "" : ", ") + json_string(key) + ": " + json_string(eq + 1);
    first = false;
  }
  return s + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pamibench: %s\nusage: pamibench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>] [--git-sha <sha>] [--source-hash <h>]\n"
               "       pamibench --workload <name> --seed <n> --plan-hash\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

constexpr int kSetupRepeats = 400;  // set-ups before the measured one
constexpr std::size_t kSpanBudget = std::size_t{1} << 21;  // spans over all threads

}  // namespace

void set_phase(const char* label) { g_phase.store(label); }

int run_main(int argc, char** argv) {
  std::string name, spans_out, git_sha = "unknown", source_hash = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool want_plan_hash = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--plan-hash") {
      want_plan_hash = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--spans-out") {
      spans_out = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--source-hash") {
      source_hash = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  if (want_plan_hash) {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"plan_hash\": \"%016llx\"}\n", wl->name,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(wl->plan_hash(seed)));
    return 0;
  }
  if (!(seconds > 0) || seconds > 60) return usage("--seconds must be in (0, 60]");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  const int cores = affinity_cores();
  if (cores < wl->threads) {
    std::fprintf(stderr,
                 "pamibench: %s runs %d threads but the CPU affinity mask allows %d cores; "
                 "refusing to measure the scheduler\n",
                 wl->name, wl->threads, cores);
    return 2;
  }
  g_workload = wl->name;
  start_watchdog();

  // Set-up samples: kSetupRepeats worlds built and torn down, half before
  // and half after the measured one, plus the measured one; setup_s is
  // their median. Splitting them samples the host at both ends of the run.
  std::vector<Setup> setups;
  auto sample_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      RunConfig rc;
      rc.seed = seed;
      rc.measure = false;
      setups.push_back(wl->run(rc).setup);
    }
  };
  sample_setups(kSetupRepeats / 2);
  std::unique_ptr<Tracer> tracer;
  if (trace == 1) tracer = std::make_unique<Tracer>(wl->threads, kSpanBudget / wl->threads);
  RunConfig rc;
  rc.seed = seed;
  rc.seconds = seconds;
  rc.tracer = tracer.get();
  Cycle cy = wl->run(rc);
  setups.push_back(cy.setup);
  set_phase("set-up");
  sample_setups(kSetupRepeats - kSetupRepeats / 2);
  set_phase("report");

  auto setup_median = [&](std::uint64_t Setup::*f) {
    std::vector<double> v;
    for (const Setup& s : setups) v.push_back(static_cast<double>(s.*f));
    return median(v);
  };
  const double setup_s = setup_median(&Setup::total_ns) * 1e-9;
  // Each end-to-end metric: the median over the slices.
  EndToEnd e2e;
  std::string slice_detail;  // [latency_us_p50, throughput_ops_s] per slice
  {
    std::vector<double> p50, tail, ops, mb;
    for (Phase& sl : cy.slices) {
      const EndToEnd e = end_to_end(sl);
      p50.push_back(e.p50_us);
      tail.push_back(e.tail_us);
      ops.push_back(e.ops_s);
      mb.push_back(e.mb_s);
      e2e.samples += e.samples;
      e2e.tail_q = e2e.tail_q == 0 ? e.tail_q : std::min(e2e.tail_q, e.tail_q);
    }
    for (std::size_t i = 0; i < p50.size(); ++i) {
      char b[64];
      std::snprintf(b, sizeof b, "%s[%.6g, %.6g]", i == 0 ? "" : ", ", p50[i], ops[i]);
      slice_detail += b;
    }
    e2e.p50_us = median(p50);
    e2e.tail_us = median(tail);
    e2e.ops_s = median(ops);
    e2e.mb_s = median(mb);
  }
  Phase ph = total(cy.slices);
  const EndToEnd whole = end_to_end(ph);

  bool checks_ok = true;
  std::string checks = "{";
  for (std::size_t i = 0; i < cy.checks.size(); ++i) {
    checks += (i == 0 ? "" : ", ") + json_string(cy.checks[i].what) + ": " +
              (cy.checks[i].ok ? "true" : "false");
    checks_ok = checks_ok && cy.checks[i].ok;
  }
  checks += "}";

  const bool correct = ph.failed == 0 && ph.attempted > 0 && checks_ok &&
                       cy.warmup.failed == 0 && cy.traced.failed == 0;
  const double fail_ratio =
      ratio(static_cast<double>(ph.failed), static_cast<double>(ph.attempted));

  Metrics m;
  std::string traced_detail;
  if (trace == 0) {
    m.add("setup_s", setup_s, "s");
    m.add("latency_us_p50", e2e.p50_us, "us");
    m.add("latency_us_p99", e2e.tail_us, "us");
    m.add("throughput_ops_s", e2e.ops_s, "ops/s");
    m.add("goodput_mb_s", e2e.mb_s, "MB/s");
  } else {
    const pamix::obs::PvarSnapshot& d = ph.delta.sw;
    pamix::obs::PvarSnapshot all = ph.delta.sw;
    all += ph.delta.mu;
    const double ops = static_cast<double>(ph.attempted);
    auto count = [&](const char* n, std::uint64_t v) {
      m.add(n, static_cast<double>(v), "count");
    };
    const bool is_mpi = wl->mpi;

    // Spans (traced phase).
    const SpanStats st = span_stats(*tracer);
    for (std::size_t n = 1; n < kSpanNames; ++n) {
      const std::string stem = span_metric(static_cast<SpanName>(n));
      m.add(stem + ".mean", st.mean_ns[n], "ns");
      m.add(stem + ".p50", st.p50_ns[n], "ns");
    }
    const double traced_ops = static_cast<double>(cy.traced.lead_ops);
    for (const char* layer : {"mpi", "am", "core"}) {
      const auto it = st.layer_self_ns.find(layer);
      m.add(std::string("layer.") + layer + ".self_ns_per_op",
            ratio(it != st.layer_self_ns.end() ? it->second : 0, traced_ops), "ns");
    }
    const auto bench_self = st.layer_self_ns.find("bench");
    m.add("residual_ns_per_op",
          ratio(bench_self != st.layer_self_ns.end() ? bench_self->second : 0, traced_ops), "ns");
    const EndToEnd te = end_to_end(cy.traced);
    // Both sides are whole-phase figures, so the difference is the
    // tracing cost, not a difference between estimators.
    m.add("overhead.latency_us_p50", te.p50_us - whole.p50_us, "us");
    m.add("overhead.latency_us_p99", te.tail_us - whole.tail_us, "us");
    m.add("overhead.throughput_ops_s", te.ops_s - whole.ops_s, "ops/s");
    m.add("overhead.goodput_mb_s", te.mb_s - whole.mb_s, "MB/s");

    // Registry deltas (untraced measured phase).
    count("mpi.isends", d[Pvar::MpiIsends]);
    count("mpi.irecvs", d[Pvar::MpiIrecvs]);
    count("mpi.match.bin_hits", d[Pvar::MpiMatchBinHits]);
    count("mpi.match.list_scans", d[Pvar::MpiMatchListScans]);
    count("mpi.match.pool_misses", d[Pvar::MpiMatchPoolMisses]);
    m.add("mpi.unexpected_ratio",
          ratio(static_cast<double>(ph.mpi_unexpected), static_cast<double>(ph.mpi_received)),
          "ratio");
    count("proto.sends.eager", d[Pvar::SendsEager]);
    count("proto.sends.rdzv", d[Pvar::SendsRdzv]);
    count("proto.sends.shm", d[Pvar::SendsShm]);
    count("proto.rdzv.done", d[Pvar::RdzvDone]);
    const std::uint64_t sends = d[Pvar::SendsEager] + d[Pvar::SendsRdzv] + d[Pvar::SendsShm];
    m.add("proto.eagain_ratio",
          ratio(static_cast<double>(d[Pvar::SendEagain]), static_cast<double>(sends)), "ratio");
    m.add("proto.advance_useful_ratio",
          ratio(static_cast<double>(d[Pvar::AdvanceEvents]),
                static_cast<double>(d[Pvar::AdvanceCalls])),
          "ratio");
    count("hw.mu.packets_injected", all[Pvar::PacketsInjected]);
    count("hw.mu.packets_received", all[Pvar::PacketsReceived]);
    m.add("hw.mu.packets_per_op", ratio(static_cast<double>(all[Pvar::PacketsInjected]), ops),
          "packets/op");
    count("hw.mu.staging_pool_misses", ph.delta.mu[Pvar::AllocPoolMisses]);
    count("core.alloc.pool_misses", d[Pvar::AllocPoolMisses]);
    count("core.alloc.heap_fallbacks", d[Pvar::AllocHeapFallbacks]);
    count("core.comm.wakeups", d[Pvar::CommWakeups]);
    count("core.comm.sleeps", d[Pvar::CommSleeps]);
    count("core.comm.steals", d[Pvar::CommSteals]);
    count("core.comm.inline_sends", d[Pvar::CommInlineSends]);
    count("core.comm.sleep_timeouts", d[Pvar::CommSleepTimeouts]);
    count("core.coll.net_rounds", d[Pvar::CollNetRounds]);
    count("core.coll.slices", d[Pvar::CollSlices]);
    count("core.coll.sw_deposits", d[Pvar::CollSwDeposits]);
    m.add("core.coll.local_reduce_bytes", static_cast<double>(d[Pvar::CollLocalReduceBytes]),
          "B");
    m.add("am.records_per_packet",
          ratio(static_cast<double>(d[Pvar::AmAggRecords]),
                static_cast<double>(d[Pvar::AmAggPackets])),
          "ratio");
    const std::uint64_t flushes =
        d[Pvar::AmAggFlushFull] + d[Pvar::AmAggFlushTimeout] + d[Pvar::AmAggFlushExplicit];
    m.add("am.flush_timeout_share",
          ratio(static_cast<double>(d[Pvar::AmAggFlushTimeout]), static_cast<double>(flushes)),
          "ratio");
    count("am.credit_stalls", d[Pvar::AmCreditStalls]);
    count("am.credit_ctl_packets", d[Pvar::AmCreditCtlPackets]);
    count("runtime.collnet.rounds_completed", d[Pvar::CollRoundsCompleted]);
    count("runtime.collnet.lock_contended", d[Pvar::CollnetLockContended]);

    // Set-up (medians over every set-up of the run).
    m.add("runtime.machine_setup_ns", setup_median(&Setup::machine_ns), "ns");
    m.add("mpi.world_setup_ns", is_mpi ? setup_median(&Setup::world_ns) : 0, "ns");
    m.add("mpi.init_ns", is_mpi ? setup_median(&Setup::init_ns) : 0, "ns");
    m.add("pami.world_setup_ns", is_mpi ? 0 : setup_median(&Setup::world_ns), "ns");
    m.add("am.init_ns", is_mpi ? 0 : setup_median(&Setup::init_ns), "ns");

    m.add("fail_ratio", fail_ratio, "ratio");
    m.add("latency_samples", static_cast<double>(e2e.samples), "count");

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ", \"traced\": {\"seconds\": %.6f, \"ops\": %llu, \"failed\": %llu, "
                  "\"latency_samples\": %zu}",
                  cy.traced.seconds, static_cast<unsigned long long>(cy.traced.attempted),
                  static_cast<unsigned long long>(cy.traced.failed), te.samples);
    traced_detail = buf;
    if (!spans_out.empty() && !write_spans(*tracer, spans_out)) {
      std::fprintf(stderr, "pamibench: could not write spans to %s\n", spans_out.c_str());
    }
  }

  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.6f, \"threads\": %d, "
                "\"setup_repeats\": %zu, \"ops\": %llu, \"failed\": %llu, \"warmup_failed\": %llu, "
                "\"fail_ratio\": %.17g, "
                "\"latency_samples\": %zu, \"latency_tail_quantile\": %.2f, \"slices\": %zu, "
                "\"whole_run\": {\"latency_us_p50\": %.6g, \"latency_us_p99\": %.6g, "
                "\"throughput_ops_s\": %.6g, \"goodput_mb_s\": %.6g}",
                wl->name, static_cast<unsigned long long>(seed), ph.seconds, wl->threads,
                setups.size(), static_cast<unsigned long long>(ph.attempted),
                static_cast<unsigned long long>(ph.failed),
                static_cast<unsigned long long>(cy.warmup.failed), fail_ratio, e2e.samples,
                e2e.tail_q, cy.slices.size(), whole.p50_us, whole.tail_us, whole.ops_s, whole.mb_s);
  std::printf("{\"pamibench\": {%s, \"slice_p50_us_and_ops_s\": [%s], \"host\": %s, "
              "\"checks\": %s%s}}\n",
              buf, slice_detail.c_str(), host_block(git_sha, source_hash).c_str(), checks.c_str(),
              traced_detail.c_str());
  for (const Check& c : cy.checks) {
    if (!c.ok) {
      std::fprintf(stderr, "pamibench: self-check failed on %s: %s\n", wl->name, c.what.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(ph.attempted),
              static_cast<unsigned long long>(ph.failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace pamibench

int main(int argc, char** argv) { return pamibench::run_main(argc, argv); }

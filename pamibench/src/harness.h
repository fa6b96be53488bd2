// pamibench harness: the pieces every workload shares — seeded plans, the
// latency log, the span recorder of the traced run, the phase barrier, the
// progress watchdog's heartbeat, and the registry-delta snapshots.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around calls into the public API, counters are read from
// obs::Registry, and nothing sets a PAMIX_* knob.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/pvar.h"

namespace pamibench {

using pamix::obs::now_ns;

// ---------------------------------------------------------------- plans ---

/// SplitMix64: the one generator every plan is drawn from, so a seed fixes
/// every size, target and payload value a workload uses.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }

 private:
  std::uint64_t s_;
};

/// One stateless draw: the value a plan derives from (seed, index).
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  return Rng(seed ^ (i * 0xd1342543de82ef95ull)).next();
}

/// FNV-1a over the fields of a plan, for the same-seed/same-plan test.
class PlanHash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// -------------------------------------------------------------- latency ---

/// Bounded per-op sample log. Keeps every sample until full, then halves
/// itself (drops every other entry) and keeps every second sample from
/// then on, and so on. The kept set depends only on the op ordinal, so
/// logs of different ranks stay aligned op for op.
template <typename T>
class SampleLog {
 public:
  explicit SampleLog(std::size_t capacity = std::size_t{1} << 20) : cap_(capacity) {
    v_.reserve(capacity);
  }

  void add(std::uint64_t x) {
    if (n_++ % stride_ != 0) return;
    if (v_.size() == cap_) {
      for (std::size_t i = 0; i < v_.size() / 2; ++i) v_[i] = v_[2 * i];
      v_.resize(v_.size() / 2);
      stride_ *= 2;
      if ((n_ - 1) % stride_ != 0) return;
    }
    v_.push_back(static_cast<T>(std::min<std::uint64_t>(x, std::numeric_limits<T>::max())));
  }
  void clear() {
    v_.clear();
    n_ = 0;
    stride_ = 1;
  }
  const std::vector<T>& samples() const { return v_; }

 private:
  std::size_t cap_;
  std::vector<T> v_;
  std::uint64_t n_ = 0;
  std::uint64_t stride_ = 1;
};
using LatencyLog = SampleLog<std::uint32_t>;

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
inline double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (double(v[hi]) - double(v[lo]));
}

/// The highest of p99/p95/p90 that has at least ten samples beyond it.
inline double tail_quantile_for(std::size_t n) {
  for (double q : {0.99, 0.95, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

// ---------------------------------------------------------------- spans ---

/// The calls the traced run brackets. `Op` is the benchmark's own loop
/// iteration (the root of every other span on its thread).
enum class SpanName : std::uint8_t {
  Op,
  MpiSend,
  MpiRecv,
  MpiIsend,
  MpiIrecv,
  MpiWaitall,
  MpiAllreduceSmall,
  MpiAllreduceLarge,
  MpiAllreduceSw,
  AmCall,
  CoreAdvance,
  Count,
};
inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::Count);

/// Metric stem of each span ("mpi.send_ns" ...) and the src/ layer it
/// times.
const char* span_metric(SpanName n);
const char* span_layer(SpanName n);

struct Span {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  std::uint32_t parent;  // index in the same recorder, or kNoSpan
  std::uint32_t op;      // op ordinal on this thread
  SpanName name;
};
inline constexpr std::uint32_t kNoSpan = UINT32_MAX;

/// One thread's spans, in memory allocated before the traced phase. When
/// it fills, recording stops and `full()` ends the phase.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.resize(capacity); }

  std::uint32_t open(SpanName name, std::uint32_t op) {
    if (n_ == spans_.size()) {
      full_.store(true, std::memory_order_relaxed);
      return kNoSpan;
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(n_++);
    spans_[idx] = Span{now_ns(), 0, depth_ > 0 ? stack_[depth_ - 1] : kNoSpan, op, name};
    stack_[depth_++] = idx;
    return idx;
  }
  void close(std::uint32_t idx) {
    if (idx == kNoSpan) return;
    spans_[idx].dur_ns = static_cast<std::uint32_t>(now_ns() - spans_[idx].start_ns);
    --depth_;
  }
  bool full() const { return full_.load(std::memory_order_relaxed); }
  std::size_t size() const { return n_; }
  const Span& operator[](std::size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  std::size_t n_ = 0;
  std::uint32_t stack_[16] = {};
  int depth_ = 0;
  std::atomic<bool> full_{false};
};

/// RAII span; a null recorder (the untraced run) makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* r, SpanName name, std::uint32_t op)
      : r_(r), idx_(r != nullptr ? r->open(name, op) : kNoSpan) {}
  ~Scope() {
    if (r_ != nullptr) r_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* r_;
  std::uint32_t idx_;
};

/// Per-thread recorders of one traced phase.
class Tracer {
 public:
  Tracer(int threads, std::size_t capacity_per_thread) {
    for (int i = 0; i < threads; ++i) {
      recs_.push_back(std::make_unique<SpanRecorder>(capacity_per_thread));
    }
  }

  SpanRecorder* at(int thread) { return recs_[static_cast<std::size_t>(thread)].get(); }
  int threads() const { return static_cast<int>(recs_.size()); }
  bool full() const {
    for (const auto& r : recs_) {
      if (r->full()) return true;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<SpanRecorder>> recs_;
};

// ------------------------------------------------------------- runtime ---

/// When a measured phase ends: its deadline passed, or (traced) a span
/// recorder filled.
struct Deadline {
  std::uint64_t end_ns = 0;
  const Tracer* tracer = nullptr;
  bool reached(std::uint64_t now) const {
    return now >= end_ns || (tracer != nullptr && tracer->full());
  }
  bool reached() const { return reached(now_ns()); }
};

/// Sense-reversing barrier for the workload's own threads. `idle` runs
/// while waiting (the AM servers keep advancing their contexts in it).
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}
  template <typename Idle>
  void wait(Idle&& idle) {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) idle();
  }
  void wait() {
    wait([] { std::this_thread::yield(); });
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

/// Heartbeat the watchdog reads: ops issued and completed by each driving
/// thread (one cache line per thread).
struct alignas(64) Beat {
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> done{0};
};
inline constexpr int kMaxThreads = 8;
Beat& beat(int thread);

/// Registry totals split by layer owner: the simulated MU's packet-staging
/// domains ("nodeN.mu") apart from the software stack's.
struct Counters {
  pamix::obs::PvarSnapshot sw;
  pamix::obs::PvarSnapshot mu;
  Counters operator-(const Counters& o) const { return {sw - o.sw, mu - o.mu}; }
};
Counters read_counters();

// -------------------------------------------------------------- results ---

/// One measured phase of one workload.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lead_ops = 0;       // ops driven by task 0's thread (span normalisation)
  std::uint64_t payload_bytes = 0;  // delivered and verified
  double seconds = 0;
  std::vector<std::uint32_t> latency;  // per-op samples, raw units
  double ns_per_unit = 1.0;            // 0.5 for a round trip halved
  Counters delta;
  std::uint64_t mpi_unexpected = 0;  // Mpi::unexpected_messages delta
  std::uint64_t mpi_received = 0;    // ... plus posted_receives_matched
};

/// Set-up times of one build of the workload's world.
struct Setup {
  std::uint64_t machine_ns = 0;  // runtime::Machine constructor
  std::uint64_t world_ns = 0;    // MpiWorld / ClientWorld (+ am engines)
  std::uint64_t init_ns = 0;     // slowest task's Mpi::init
  std::uint64_t total_ns = 0;    // first line to the first op being able to start
};

struct Check {
  std::string what;
  bool ok;
};

/// The untraced measurement runs as this many back-to-back slices; each
/// end-to-end metric is the median over slices.
inline constexpr int kSlices = 20;

/// One build-up and tear-down of the workload's world. With `measure`
/// false it only sets up (the repeated set-up samples); otherwise it warms
/// up and runs the untraced slices, then (with a tracer) the traced phase.
struct Cycle {
  Setup setup;
  Phase warmup;
  std::vector<Phase> slices;
  Phase traced;
  std::vector<Check> checks;
};

/// The slices summed into one phase (counts, time, deltas, samples).
Phase total(const std::vector<Phase>& slices);

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 1;
  bool measure = true;
  Tracer* tracer = nullptr;  // non-null: also run the traced phase
  const char* phase = "";    // watchdog label
};

struct Workload {
  const char* name;
  int threads;  // every host thread the workload runs, commthreads included
  bool mpi;     // built on MpiWorld (else ClientWorld + am::Engine)
  Cycle (*run)(const RunConfig&);
  std::uint64_t (*plan_hash)(std::uint64_t seed);
};

const std::vector<Workload>& workloads();

/// Label the watchdog prints if the current phase stops making progress.
void set_phase(const char* label);

}  // namespace pamibench

// Microbenchmarks of the primitives the paper's design rests on: L2
// atomics vs mutexes, the L2-atomic ticket mutex vs std::mutex, matcher
// throughput, topology memory/lookup costs, and the obs telemetry
// primitives (whose per-event cost bounds the tracer's intrusiveness), plus
// the per-release and per-packet costs of the pooled MU fast path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/buffer_pool.h"
#include "core/client.h"
#include "core/context.h"
#include "core/inline_fn.h"
#include "core/topology.h"
#include "core/work_queue.h"
#include "hw/l2_atomics.h"
#include "hw/mu.h"
#include "mpi/matching.h"
#include "obs/clock.h"
#include "obs/pvar.h"
#include "obs/trace_ring.h"
#include "runtime/machine.h"

namespace {

using namespace pamix;

void BM_L2_LoadIncrement(benchmark::State& state) {
  hw::L2Word w;
  for (auto _ : state) benchmark::DoNotOptimize(hw::l2::load_increment(w));
}
BENCHMARK(BM_L2_LoadIncrement)->Threads(1)->Threads(4)->Threads(8);

void BM_MutexIncrement(benchmark::State& state) {
  static std::mutex mu;
  static std::uint64_t counter = 0;
  for (auto _ : state) {
    std::lock_guard<std::mutex> g(mu);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_MutexIncrement)->Threads(1)->Threads(4)->Threads(8);

void BM_L2_BoundedIncrement(benchmark::State& state) {
  hw::L2Word w;
  hw::L2Word bound(UINT64_MAX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::l2::load_increment_bounded(w, bound));
  }
}
BENCHMARK(BM_L2_BoundedIncrement)->Threads(1)->Threads(4);

void BM_L2AtomicMutex_LockUnlock(benchmark::State& state) {
  static hw::L2AtomicMutex mu;
  for (auto _ : state) {
    mu.lock();
    mu.unlock();
  }
}
BENCHMARK(BM_L2AtomicMutex_LockUnlock)->Threads(1)->Threads(2)->Threads(4);

void BM_StdMutex_LockUnlock(benchmark::State& state) {
  static std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    mu.unlock();
  }
}
BENCHMARK(BM_StdMutex_LockUnlock)->Threads(1)->Threads(2)->Threads(4);

void BM_Matcher_PostedMatch(benchmark::State& state) {
  mpi::Matcher matcher(mpi::Library::ThreadOptimized);
  mpi::RequestPool pool;
  const std::byte payload[8] = {};
  std::uint32_t seq = 0;
  std::byte buf[8];
  for (auto _ : state) {
    auto req = pool.acquire(mpi::RequestImpl::Kind::Recv);
    req->buffer = buf;
    req->capacity = sizeof(buf);
    matcher.post_recv(req, 0, 1, 7);
    mpi::Matcher::Arrival a;
    a.kind = mpi::Matcher::Arrival::Kind::Inline;
    a.env = mpi::Envelope{0, 1, 7, seq++};
    a.pipe = payload;
    a.pipe_bytes = sizeof(payload);
    matcher.on_arrival(std::move(a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Matcher_PostedMatch);

void BM_Matcher_UnexpectedThenMatch(benchmark::State& state) {
  mpi::Matcher matcher(mpi::Library::ThreadOptimized);
  mpi::RequestPool pool;
  const std::byte payload[8] = {};
  std::uint32_t seq = 0;
  std::byte buf[8];
  for (auto _ : state) {
    mpi::Matcher::Arrival a;
    a.kind = mpi::Matcher::Arrival::Kind::Inline;
    a.env = mpi::Envelope{0, 2, 9, seq++};
    a.pipe = payload;
    a.pipe_bytes = sizeof(payload);
    matcher.on_arrival(std::move(a));
    auto req = pool.acquire(mpi::RequestImpl::Kind::Recv);
    req->buffer = buf;
    req->capacity = sizeof(buf);
    matcher.post_recv(req, 0, 2, 9);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Matcher_UnexpectedThenMatch);

void BM_Matcher_WildcardScan(benchmark::State& state) {
  // Depth of the posted queue ahead of the wildcard: the serialization
  // cost the paper accepts to keep wildcard semantics simple.
  const int depth = static_cast<int>(state.range(0));
  mpi::Matcher matcher(mpi::Library::ThreadOptimized);
  mpi::RequestPool pool;
  std::byte buf[8];
  std::vector<mpi::Request> parked;
  for (int i = 0; i < depth; ++i) {
    auto req = pool.acquire(mpi::RequestImpl::Kind::Recv);
    req->buffer = buf;
    req->capacity = sizeof(buf);
    matcher.post_recv(req, 0, /*src=*/500 + i, /*tag=*/1);
    parked.push_back(req);
  }
  const std::byte payload[8] = {};
  std::uint32_t seq = 0;
  for (auto _ : state) {
    auto req = pool.acquire(mpi::RequestImpl::Kind::Recv);
    req->buffer = buf;
    req->capacity = sizeof(buf);
    matcher.post_recv(req, 0, mpi::kAnySource, 7);
    mpi::Matcher::Arrival a;
    a.kind = mpi::Matcher::Arrival::Kind::Inline;
    a.env = mpi::Envelope{0, 3, 7, seq++};
    a.pipe = payload;
    a.pipe_bytes = sizeof(payload);
    matcher.on_arrival(std::move(a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Matcher_WildcardScan)->Arg(0)->Arg(16)->Arg(128);

void BM_Topology_AxialRankLookup(benchmark::State& state) {
  const hw::TorusGeometry g = hw::TorusGeometry::racks(2);
  const auto t = pami::Topology::axial(g, hw::TorusRectangle::whole_machine(g), 16);
  int task = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.rank_of(task));
    task = (task + 4097) % static_cast<int>(t.size());
  }
}
BENCHMARK(BM_Topology_AxialRankLookup);

void BM_Topology_ListRankLookup(benchmark::State& state) {
  std::vector<int> tasks(32768);
  for (int i = 0; i < 32768; ++i) tasks[static_cast<std::size_t>(i)] = i;
  const auto t = pami::Topology::list(std::move(tasks));
  int task = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.rank_of(task));
    task = (task + 4097) % static_cast<int>(t.size());
  }
}
BENCHMARK(BM_Topology_ListRankLookup);

// ----------------------------------------------------------------- obs ----
// The telemetry primitives sit on the fast path of every send and advance;
// these measure the cost the subsystem adds per counted/traced event.

void BM_Obs_PvarAdd(benchmark::State& state) {
  static obs::PvarSet pvars;
  for (auto _ : state) pvars.add(obs::Pvar::SendsEager);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Obs_PvarAdd)->Threads(1)->Threads(4);

void BM_Obs_PvarSnapshot(benchmark::State& state) {
  obs::PvarSet pvars;
  pvars.add(obs::Pvar::SendsEager, 123);
  for (auto _ : state) {
    obs::PvarSnapshot s = pvars.snapshot();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Obs_PvarSnapshot);

void BM_Obs_ClockNow(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(obs::now_ns());
}
BENCHMARK(BM_Obs_ClockNow);

void BM_Obs_TraceRecord(benchmark::State& state) {
  obs::TraceRing ring;
  ring.enable(4096, ~0u);
  for (auto _ : state) ring.record(obs::TraceEv::SendEagerBegin, 42);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Obs_TraceRecord);

void BM_Obs_TraceRecordDisabled(benchmark::State& state) {
  // What instrumented code pays when tracing is off (the common case).
  // The clobber makes each call re-read the ring's state, as a call site
  // between other work does; without it the whole loop folds away.
  obs::TraceRing ring;
  for (auto _ : state) {
    ring.record(obs::TraceEv::SendEagerBegin, 42);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Obs_TraceRecordDisabled);

// ----------------------------------------------------- fast-path alloc ----
// The zero-allocation fast path rests on three substitutions: InlineFn for
// std::function, pooled Buf for heap buffers, and the fixed-slot work
// queue. Each pair below measures the substitution directly; the pool
// benchmarks also report the pvar counters so a recycling regression shows
// up as a nonzero miss rate, not just a slower time.

void BM_InlineFn_ConstructAndCall(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;  // 32-byte capture, well within budget
  for (auto _ : state) {
    core::SmallFn fn([&acc, a, b, c, d] { acc += a + b + c + d; });
    fn();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineFn_ConstructAndCall);

void BM_StdFunction_ConstructAndCall(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (auto _ : state) {
    std::function<void()> fn([&acc, a, b, c, d] { acc += a + b + c + d; });
    fn();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunction_ConstructAndCall);

void BM_BufferPool_AcquireRelease(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  obs::PvarSet pvars;
  core::BufferPool pool(&pvars);
  { core::Buf warm = pool.acquire(bytes); }  // prime the freelist
  for (auto _ : state) {
    core::Buf b = pool.acquire(bytes);
    benchmark::DoNotOptimize(b.data());
  }
  const obs::PvarSnapshot s = pvars.snapshot();
  state.counters["pool_hits"] = static_cast<double>(s[obs::Pvar::AllocPoolHits]);
  state.counters["pool_misses"] = static_cast<double>(s[obs::Pvar::AllocPoolMisses]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPool_AcquireRelease)->Arg(64)->Arg(512)->Arg(8192);

void BM_BufferPool_CrossThreadRelease(benchmark::State& state) {
  // The owner acquires; a second thread releases every block (the packet
  // consumer's side of MU staging), so each item is one cross-thread
  // release — one CAS onto the reclaim stack — plus the owner's share of
  // an exchange-drain. A bounded ring hands the blocks over; both sides
  // wait through a hw::Waiter, whose yield matters here: a fresh thread
  // often starts on its spinning parent's CPU and would otherwise wait
  // for the load balancer.
  obs::PvarSet pvars;
  core::BufferPool pool(&pvars);
  constexpr std::size_t kRing = 256;
  std::vector<core::Buf> ring(kRing);
  std::atomic<std::uint64_t> head{0};  // next slot the releaser takes
  std::atomic<std::uint64_t> tail{0};  // next slot the owner fills
  std::atomic<bool> stop{false};
  std::thread releaser([&] {
    std::uint64_t h = 0;
    hw::Waiter waiter;
    for (;;) {
      const std::uint64_t t = tail.load(std::memory_order_acquire);
      if (h == t) {
        if (stop.load(std::memory_order_acquire) && h == tail.load(std::memory_order_acquire)) {
          break;
        }
        waiter.pause();
        continue;
      }
      waiter.reset();
      for (; h < t; ++h) {
        benchmark::DoNotOptimize(ring[h % kRing].data());
        ring[h % kRing].reset();
      }
      head.store(h, std::memory_order_release);
    }
  });
  std::uint64_t t = 0;
  hw::Waiter waiter;
  for (auto _ : state) {
    while (t - head.load(std::memory_order_acquire) >= kRing) waiter.pause();
    waiter.reset();
    ring[t % kRing] = pool.acquire(512);
    tail.store(++t, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  releaser.join();
  const obs::PvarSnapshot s = pvars.snapshot();
  state.counters["pool_hits"] = static_cast<double>(s[obs::Pvar::AllocPoolHits]);
  state.counters["pool_misses"] = static_cast<double>(s[obs::Pvar::AllocPoolMisses]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPool_CrossThreadRelease)->UseRealTime();

/// Routes every burst straight into its destination MU, like the
/// functional network without the machine around it.
class DirectPort final : public hw::NetworkPort {
 public:
  hw::MessagingUnit* dest = nullptr;
  std::size_t transmit(hw::MuPacket* pkts, std::size_t n) override {
    return dest->receive(pkts, n);
  }
};

void BM_MuInject(benchmark::State& state) {
  // One memory-FIFO descriptor of `packets` full packets per iteration:
  // framing, payload staging, one transmit burst per 16 packets, the
  // reception FIFO append and the consumer's batched poll. Items are
  // packets, so the per-packet cost of each descriptor size shows.
  const auto packets = static_cast<std::size_t>(state.range(0));
  DirectPort port;
  hw::MessagingUnit src(0, &port, nullptr);
  hw::MessagingUnit dst(1, &port, nullptr);
  port.dest = &dst;
  std::vector<std::byte> payload(packets * hw::kMaxPacketPayload, std::byte{0x42});
  std::vector<hw::MuPacket> drained(hw::kMuBurstPackets);
  auto one = [&] {
    hw::MuDescriptor d;
    d.type = hw::MuPacketType::MemoryFifo;
    d.dest_node = 1;
    d.payload = payload.data();
    d.payload_bytes = payload.size();
    src.inj_fifo(0).push(std::move(d));
    src.advance_injection(0);
    while (dst.rec_fifo(0).poll_batch(drained.data(), drained.size()) > 0) {
      benchmark::DoNotOptimize(drained.data());
    }
  };
  for (int i = 0; i < 16; ++i) one();  // warm-up: FIFO rings and pools settle
  for (auto _ : state) one();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(packets));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_MuInject)->Arg(1)->Arg(4)->Arg(16);

void BM_HeapVector_AcquireRelease(benchmark::State& state) {
  // What the staging path used to do: a fresh heap vector per packet.
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto v = std::make_unique<std::vector<std::byte>>(bytes);
    benchmark::DoNotOptimize(v->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapVector_AcquireRelease)->Arg(64)->Arg(512)->Arg(8192);

void BM_WorkQueue_PostAdvance(benchmark::State& state) {
  pami::WorkQueue q(256);
  std::uint64_t ran = 0;
  for (auto _ : state) {
    q.post([&ran] { ++ran; });
    q.advance();
  }
  benchmark::DoNotOptimize(ran);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkQueue_PostAdvance);

void BM_EagerRoundTrip64B(benchmark::State& state) {
  // End-to-end cost of one pooled 64-byte eager send, delivery included.
  // Steady state must stay pool-hit-only; the counters prove it per run.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  pami::ClientWorld world(machine, pami::ClientConfig{});
  pami::Context& c0 = world.client(0).context(0);
  pami::Context& c1 = world.client(1).context(0);
  std::uint64_t delivered = 0;
  c1.set_dispatch(1, [&](pami::Context&, const void*, std::size_t, const void*, std::size_t,
                         std::size_t, pami::Endpoint, pami::RecvDescriptor*) { ++delivered; });
  std::byte payload[64];
  std::memset(payload, 0x42, sizeof(payload));
  auto one = [&] {
    pami::SendParams p;
    p.dispatch = 1;
    p.dest = pami::Endpoint{1, 0};
    p.data = payload;
    p.data_bytes = sizeof(payload);
    while (c0.send(p) == pami::Result::Eagain) c1.advance();
    c1.advance();
  };
  for (int i = 0; i < 64; ++i) one();  // warm-up: pools and tables settle
  const obs::PvarSnapshot before = obs::Registry::instance().totals();
  for (auto _ : state) one();
  const obs::PvarSnapshot delta = obs::Registry::instance().totals() - before;
  while (delivered < 64 + static_cast<std::uint64_t>(state.iterations())) c1.advance();
  state.counters["pool_hits"] = static_cast<double>(delta[obs::Pvar::AllocPoolHits]);
  state.counters["pool_misses"] = static_cast<double>(delta[obs::Pvar::AllocPoolMisses]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EagerRoundTrip64B);

void BM_ContextAdvanceIdle(benchmark::State& state) {
  // One advance pass that finds nothing: the inner loop of every wait.
  // Default config, so the context owns 8 injection FIFOs.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  pami::ClientWorld world(machine, pami::ClientConfig{});
  pami::Context& ctx = world.client(0).context(0);
  ctx.advance();  // first pass outside the timed loop
  std::size_t events = 0;
  for (auto _ : state) events += ctx.advance();
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextAdvanceIdle);

}  // namespace

BENCHMARK_MAIN();

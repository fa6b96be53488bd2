// Zero-allocation steady-state invariant: after warm-up, single-packet
// eager send/receive round trips and work-queue post/advance cycles must
// perform NO global-allocator calls. A counting replacement of the global
// operator new enforces it — if a hidden allocation sneaks back onto the
// fast path (a std::function capture, a per-send vector, an unpooled
// staging buffer), these tests fail by count, not by profile.
//
// This file must be its own test binary: replacing ::operator new is
// program-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/client.h"
#include "core/collectives.h"
#include "core/context.h"
#include "runtime/machine.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting global allocator. Counts every operator-new entry point;
// deallocation is left untouched (free is not the invariant under test).
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (n + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) { return ::operator new(n, align); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pamix::pami {
namespace {

std::uint64_t allocations() { return g_news.load(std::memory_order_relaxed); }

/// Two-node, single-context world driven single-threaded, so every
/// measured allocation is attributable to the messaging path itself.
class AllocSteadyState : public ::testing::Test {
 protected:
  explicit AllocSteadyState(int ppn = 1)
      : machine_(hw::TorusGeometry({2, 1, 1, 1, 1}), ppn), world_(machine_, make_config()) {}

  static ClientConfig make_config() {
    ClientConfig c;
    c.contexts_per_task = 1;
    c.eager_limit = 1024;
    return c;
  }

  Context& ctx(int task) { return world_.client(task).context(0); }
  void advance_both() {
    ctx(0).advance();
    ctx(1).advance();
  }

  /// Misses of the pools on one task's send path — an allocation on a
  /// measured path is almost always one of them growing past its warm-up
  /// peak. Read from the task's own thread: with one context per task it
  /// owns its node's injection FIFOs, and the service pool reads under
  /// its lock.
  struct PoolMisses {
    std::uint64_t mu_staging = 0;
    std::uint64_t mu_service = 0;
    std::uint64_t ctx_stage = 0;
  };
  PoolMisses pool_misses(int task) {
    hw::MessagingUnit& mu = machine_.node(machine_.node_of_task(task)).mu();
    return {mu.staging_pool_misses(), mu.service_pool_misses(), ctx(task).stage_pool().misses()};
  }

  runtime::Machine machine_;
  ClientWorld world_;
};

TEST_F(AllocSteadyState, EagerRoundTripIsAllocationFree) {
  std::vector<std::byte> payload(64, std::byte{0x5A});
  std::vector<std::byte> got(64);
  int delivered = 0;
  ctx(1).set_dispatch(4, [&](Context&, const void*, std::size_t, const void* data,
                             std::size_t bytes, std::size_t, Endpoint, RecvDescriptor*) {
    std::memcpy(got.data(), data, std::min(bytes, got.size()));
    ++delivered;
  });

  int local_done = 0;
  auto round_trip = [&](int times) {
    for (int i = 0; i < times; ++i) {
      SendParams p;
      p.dispatch = 4;
      p.dest = Endpoint{1, 0};
      p.data = payload.data();
      p.data_bytes = payload.size();
      p.on_local_done = [&local_done] { ++local_done; };
      while (ctx(0).send(p) == Result::Eagain) advance_both();
      advance_both();
      advance_both();
    }
  };

  round_trip(16);  // warm-up: pools fill, tables size themselves
  ASSERT_EQ(delivered, 16);

  const std::uint64_t before = allocations();
  round_trip(256);
  const std::uint64_t after = allocations();

  EXPECT_EQ(delivered, 16 + 256);
  EXPECT_EQ(local_done, 16 + 256);
  EXPECT_EQ(after - before, 0u)
      << "steady-state eager send/recv performed " << (after - before)
      << " global allocations over 256 round trips";
}

TEST_F(AllocSteadyState, EagerWithAckRoundTripIsAllocationFree) {
  std::vector<std::byte> payload(64, std::byte{0x11});
  int delivered = 0;
  ctx(1).set_dispatch(5, [&](Context&, const void*, std::size_t, const void*, std::size_t,
                             std::size_t, Endpoint, RecvDescriptor*) { ++delivered; });

  int remote_done = 0;
  auto round_trip = [&](int times) {
    for (int i = 0; i < times; ++i) {
      SendParams p;
      p.dispatch = 5;
      p.dest = Endpoint{1, 0};
      p.data = payload.data();
      p.data_bytes = payload.size();
      p.on_remote_done = [&remote_done] { ++remote_done; };
      while (ctx(0).send(p) == Result::Eagain) advance_both();
      for (int k = 0; k < 4; ++k) advance_both();  // deliver + DONE return
    }
  };

  round_trip(16);
  ASSERT_EQ(remote_done, 16);

  const std::uint64_t before = allocations();
  round_trip(256);
  const std::uint64_t after = allocations();

  EXPECT_EQ(remote_done, 16 + 256);
  EXPECT_EQ(delivered, 16 + 256);
  EXPECT_EQ(after - before, 0u)
      << "steady-state eager-with-ack performed " << (after - before) << " global allocations";
}

TEST_F(AllocSteadyState, SoftwareCollectivesAreAllocationFree) {
  // Software broadcast/allreduce/barrier over active messages: after the
  // pool and the flat match table warm up, the steady state must not
  // touch the global allocator — payloads live in pooled Bufs, completion
  // callables fit their inline capture budget, matching reuses slots.
  auto geom = world_.geometries().get_or_create(42, Topology::list({0, 1}));
  ASSERT_FALSE(geom->optimized());
  std::atomic<std::uint64_t> before{0}, after{0};
  std::atomic<std::uint64_t> mu_staging{0}, mu_service{0}, ctx_stage{0};
  std::atomic<std::uint64_t> coll_pool{0}, coll_slots{0};
  machine_.run_spmd([&](int task) {
    Context& cx = ctx(task);
    const auto rank = static_cast<double>(*geom->rank_of(task));
    std::vector<std::byte> small(256, std::byte{1});   // eager delivery
    std::vector<std::byte> large(2048, std::byte{2});  // rendezvous pull
    std::vector<double> in(8, rank + 1.0), out(8);
    auto iter = [&] {
      coll::broadcast(cx, *geom, 0, small.data(), small.size());
      coll::broadcast(cx, *geom, 1, large.data(), large.size());
      coll::allreduce(cx, *geom, in.data(), out.data(), in.size() * sizeof(double),
                      hw::CombineOp::Add, hw::CombineType::Double);
      ASSERT_DOUBLE_EQ(out[0], 3.0);
      coll::barrier(cx, *geom);
    };
    // Saturation burst: 16 concurrent rendezvous sends each way push the
    // MU packet pools to a depth that strictly dominates anything the
    // (blocking, at most one-outstanding) measured collectives reach —
    // the two free-running tasks hit slightly different packet-buffering
    // peaks from run to run, so warming with the measured pattern alone
    // can leave a pool one block short.
    std::vector<std::byte> scratch(2048);
    std::atomic<int> got{0}, rdone{0};
    cx.set_dispatch(6, [&](Context&, const void*, std::size_t, const void*, std::size_t,
                           std::size_t total, Endpoint, RecvDescriptor* rd) {
      if (rd != nullptr) {
        rd->buffer = scratch.data();
        rd->bytes = total;
        rd->on_complete = [&got] { got.fetch_add(1, std::memory_order_relaxed); };
      } else {
        got.fetch_add(1, std::memory_order_relaxed);
      }
    });
    coll::barrier(cx, *geom);  // dispatch registered on both sides
    for (int i = 0; i < 16; ++i) {
      SendParams p;
      p.dispatch = 6;
      p.dest = Endpoint{task == 0 ? 1 : 0, 0};
      p.data = large.data();
      p.data_bytes = large.size();
      p.on_remote_done = [&rdone] { rdone.fetch_add(1, std::memory_order_relaxed); };
      while (cx.send(p) == Result::Eagain) cx.advance();
    }
    while (rdone.load(std::memory_order_relaxed) < 16 ||
           got.load(std::memory_order_relaxed) < 16) {
      cx.advance();
    }

    // One pass = the exact barrier/loop shape that gets measured, so the
    // match tables and payload pools see an identical pattern too.
    auto pass = [&] {
      coll::barrier(cx, *geom);
      coll::barrier(cx, *geom);
      for (int i = 0; i < 64; ++i) iter();
      coll::barrier(cx, *geom);  // trailing barrier fences the snapshots
    };
    pass();  // warm-up: pool + slot table fill
    pass();  // includes one pass->pass transition (its packet overlap
             // pattern differs from the burst-drain->pass boundary)
    const PoolMisses m0 = pool_misses(task);
    const coll::CollStateStats c0 = coll::coll_state_stats(world_.client(task));
    if (task == 0) before.store(allocations());
    pass();  // measured
    if (task == 0) after.store(allocations());
    const PoolMisses m1 = pool_misses(task);
    const coll::CollStateStats c1 = coll::coll_state_stats(world_.client(task));
    mu_staging += m1.mu_staging - m0.mu_staging;
    mu_service += m1.mu_service - m0.mu_service;
    ctx_stage += m1.ctx_stage - m0.ctx_stage;
    coll_pool += c1.pool_misses - c0.pool_misses;
    coll_slots += c1.match_slots - c0.match_slots;
  });
  EXPECT_EQ(after.load() - before.load(), 0u)
      << "steady-state software collectives performed " << (after.load() - before.load())
      << " global allocations over 64 iterations (pool misses: MU staging "
      << mu_staging.load() << ", MU service " << mu_service.load() << ", context stage "
      << ctx_stage.load() << ", CollState deposit pool " << coll_pool.load()
      << "; CollState match slot table grew by " << coll_slots.load() << ")";
}

TEST_F(AllocSteadyState, RectangleBroadcastStreamingIsAllocationFree) {
  // Cut-through rectangle broadcast: after the tree cache, the per-color
  // relay scratch, and the pre-reserved chunk pool warm up, streaming a
  // payload chunk-by-chunk down the color trees must not touch the global
  // allocator — chunks land in pooled Bufs sized by CollState::reserve,
  // acks are zero-byte (bufferless) deposits, and the per-color state
  // vectors reuse their capacity. Runs both delivery regimes: chunks
  // below the eager limit (pooled deposit copy) and above it
  // (rendezvous pull into a pooled buffer).
  auto geom = world_.geometries().world_geometry();
  ASSERT_TRUE(geom->optimized()) << "2x1x1x1x1 must be rectangle-eligible";
  const std::size_t bytes = 40960;
  for (const std::size_t chunk : {std::size_t{256}, std::size_t{2048}}) {
    const std::size_t saved = coll::tuning().rect_chunk;
    coll::tuning().rect_chunk = chunk;
    std::atomic<std::uint64_t> before{0}, after{0};
    std::atomic<std::uint64_t> mu_staging{0}, mu_service{0}, ctx_stage{0};
    machine_.run_spmd([&](int task) {
      Context& cx = ctx(task);
      std::vector<std::uint8_t> buf(bytes);
      auto pass = [&](int iters) {
        for (int i = 0; i < iters; ++i) {
          if (*geom->rank_of(task) == 0) {
            std::fill(buf.begin(), buf.end(), static_cast<std::uint8_t>(i + 1));
          }
          coll::rectangle_broadcast(cx, *geom, 0, buf.data(), bytes);
          ASSERT_EQ(buf[bytes - 1], static_cast<std::uint8_t>(i + 1)) << "task " << task;
        }
        coll::barrier(cx, *geom);  // fences the snapshots below
      };
      // Warm-up passes: tree cache, relay scratch, reserved pool, slot
      // table, MU staging. Two passes so the pass->pass boundary (its
      // chunk-overlap pattern differs from a cold start) is seen too.
      pass(16);
      pass(16);
      const PoolMisses m0 = pool_misses(task);
      if (task == 0) before.store(allocations());
      pass(32);  // measured
      if (task == 0) after.store(allocations());
      const PoolMisses m1 = pool_misses(task);
      mu_staging += m1.mu_staging - m0.mu_staging;
      mu_service += m1.mu_service - m0.mu_service;
      ctx_stage += m1.ctx_stage - m0.ctx_stage;
    });
    coll::tuning().rect_chunk = saved;
    EXPECT_EQ(after.load() - before.load(), 0u)
        << "steady-state streamed rectangle broadcast (chunk " << chunk << ") performed "
        << (after.load() - before.load()) << " global allocations over 32 iterations"
        << " (pool misses: MU staging " << mu_staging.load() << ", MU service "
        << mu_service.load() << ", context stage " << ctx_stage.load() << ")";
  }
}

/// Two nodes x two processes: the classroute collectives' node-local
/// phase (shared-address math, master/peer copy-out) runs as well.
class AllocSteadyStateClassroute : public AllocSteadyState {
 protected:
  AllocSteadyStateClassroute() : AllocSteadyState(2) {}
};

TEST_F(AllocSteadyStateClassroute, AllreduceIsAllocationFree) {
  // Classroute allreduce: the 1 MB slice pipeline (engine rounds that
  // accumulate in a master's recvbuf, peers copying out of it) and the
  // 8 B single-round path. After warm-up the engine's presized round
  // slots, the node group's staging and the published buffer slots are
  // reused: nothing may reach the global allocator.
  auto geom = world_.geometries().world_geometry();
  ASSERT_TRUE(geom->optimized()) << "the world of 2x1x1x1x1 must hold a classroute";
  constexpr std::size_t kLarge = (1u << 20) / sizeof(double);
  std::atomic<std::uint64_t> before{0}, after{0};
  std::atomic<int> wrong{0};
  machine_.run_spmd([&](int task) {
    Context& cx = ctx(task);
    const double me = task + 1.0;  // the four tasks sum to 10
    std::vector<double> in(kLarge), out(kLarge);
    double small_in = 0, small_out = 0;
    int op = 0;
    auto pass = [&] {
      for (int b = 0; b < 4; ++b, ++op) {
        for (std::size_t e = 0; e < kLarge; ++e) in[e] = me * static_cast<double>(e % 5 + 1) + op;
        coll::allreduce(cx, *geom, in.data(), out.data(), kLarge * sizeof(double),
                        hw::CombineOp::Add, hw::CombineType::Double);
        for (std::size_t e = 0; e < kLarge; ++e) {
          if (out[e] != 10.0 * static_cast<double>(e % 5 + 1) + 4.0 * op) {
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        for (int i = 0; i < 7; ++i) {
          small_in = me * (i + 1);
          coll::allreduce(cx, *geom, &small_in, &small_out, sizeof(double), hw::CombineOp::Add,
                          hw::CombineType::Double);
          if (small_out != 10.0 * (i + 1)) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
      coll::barrier(cx, *geom);  // fences the snapshots below
    };
    pass();  // warm-up: staging, round slots, published slots
    pass();
    if (task == 0) before.store(allocations());
    pass();  // measured
    if (task == 0) after.store(allocations());
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(after.load() - before.load(), 0u)
      << "steady-state classroute allreduce performed " << (after.load() - before.load())
      << " global allocations over 4 x (1 MB + 7 x 8 B)";
}

TEST_F(AllocSteadyState, WorkQueuePostAdvanceIsAllocationFree) {
  WorkQueue& q = ctx(0).work_queue();
  int ran = 0;
  for (int i = 0; i < 16; ++i) {  // warm-up
    q.post([&ran] { ++ran; });
    q.advance();
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1024; ++i) {
    q.post([&ran] { ++ran; });
    q.advance();
  }
  const std::uint64_t after = allocations();
  EXPECT_EQ(ran, 16 + 1024);
  EXPECT_EQ(after - before, 0u)
      << "work-queue post/advance performed " << (after - before) << " global allocations";
}

}  // namespace
}  // namespace pamix::pami

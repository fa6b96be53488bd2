#include "core/commthread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/client.h"
#include "runtime/machine.h"

namespace pamix::pami {
namespace {

class CommThreadTest : public ::testing::Test {
 protected:
  CommThreadTest() : machine_(hw::TorusGeometry({2, 1, 1, 1, 1}), 1), world_(machine_, cfg()) {}
  static ClientConfig cfg() {
    ClientConfig c;
    c.contexts_per_task = 2;
    return c;
  }

  template <class Pred>
  static bool eventually(Pred&& p, int ms = 2000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (p()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return p();
  }

  runtime::Machine machine_;
  ClientWorld world_;
};

TEST_F(CommThreadTest, PostedWorkRunsWithoutCallerAdvance) {
  CommThreadPool pool(world_.client(0), 2);
  ASSERT_EQ(pool.thread_count(), 2);
  std::atomic<bool> ran{false};
  world_.client(0).context(0).post([&] { ran.store(true); });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  pool.stop();
}

TEST_F(CommThreadTest, BackgroundProgressDeliversMessages) {
  // Receiver side progressed entirely by its commthreads; the sender never
  // advances the receiving context.
  std::atomic<int> received{0};
  world_.client(1).context(0).set_dispatch(
      1, [&](Context&, const void*, std::size_t, const void*, std::size_t, std::size_t,
             Endpoint, RecvDescriptor*) { received.fetch_add(1); });
  CommThreadPool pool(world_.client(1), 2);
  for (int i = 0; i < 50; ++i) {
    Context& sctx = world_.client(0).context(0);
    while (sctx.send_immediate(1, Endpoint{1, 0}, nullptr, 0, nullptr, 0) != Result::Success) {
      sctx.advance();
    }
  }
  EXPECT_TRUE(eventually([&] { return received.load() == 50; }));
  pool.stop();
}

TEST_F(CommThreadTest, IdleCommthreadsSleepOnWakeupUnit) {
  CommThreadPool pool(world_.client(0), 1);
  EXPECT_TRUE(eventually([&] { return pool.sleeps() > 0; }));
  const auto sleeps_before = pool.sleeps();
  // Posting work wakes the thread; it runs the item and goes back to sleep.
  std::atomic<bool> ran{false};
  world_.client(0).context(0).post([&] { ran.store(true); });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_TRUE(eventually([&] { return pool.sleeps() > sleeps_before; }));
  pool.stop();
}

TEST_F(CommThreadTest, HwThreadAccounting) {
  auto& hwmap = machine_.node(0).hw_threads();
  const int before = hwmap.commthreads();
  {
    CommThreadPool pool(world_.client(0), 3);
    EXPECT_EQ(hwmap.commthreads(), before + 3);
    pool.stop();
    EXPECT_EQ(hwmap.commthreads(), before);
  }
}

TEST_F(CommThreadTest, OverlapsCommunicationWithComputation) {
  // The paper's Figure 2 pattern: the main thread posts work, computes,
  // then polls completion — the commthread did the communication.
  CommThreadPool pool0(world_.client(0), 1);
  CommThreadPool pool1(world_.client(1), 1);
  std::atomic<bool> got_reply{false};
  world_.client(1).context(0).set_dispatch(
      2, [&](Context& rctx, const void*, std::size_t, const void*, std::size_t, std::size_t,
             Endpoint origin, RecvDescriptor*) {
        // Reply from the receiving commthread.
        rctx.send_immediate(3, origin, nullptr, 0, nullptr, 0);
      });
  world_.client(0).context(0).set_dispatch(
      3, [&](Context&, const void*, std::size_t, const void*, std::size_t, std::size_t,
             Endpoint, RecvDescriptor*) { got_reply.store(true); });

  Context& ctx0 = world_.client(0).context(0);
  ctx0.post([&ctx0] {
    while (ctx0.send_immediate(2, Endpoint{1, 0}, nullptr, 0, nullptr, 0) != Result::Success) {
    }
  });
  // "Compute" without ever advancing.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_TRUE(eventually([&] { return got_reply.load(); }));
  pool0.stop();
  pool1.stop();
}

TEST_F(CommThreadTest, StopIsIdempotentAndPromptWhileSleeping) {
  CommThreadPool pool(world_.client(0), 2);
  ASSERT_TRUE(eventually([&] { return pool.sleeps() >= 1; }));
  const auto t0 = std::chrono::steady_clock::now();
  pool.stop();
  pool.stop();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 500);
}

TEST_F(CommThreadTest, ZeroThreadsRequestedIsHarmless) {
  CommThreadPool pool(world_.client(0), 0);
  EXPECT_EQ(pool.thread_count(), 0);
  pool.stop();
}

TEST_F(CommThreadTest, SleepTimeoutsStayZeroUnderLoad) {
  // Every wake must come from a watch or the doorbell; the 50ms bounded
  // sleep is a safety net. A nonzero count here means a producer's store
  // was not covered by any armed watch — a lost wakeup.
  std::atomic<int> received{0};
  world_.client(1).context(0).set_dispatch(
      1, [&](Context&, const void*, std::size_t, const void*, std::size_t, std::size_t,
             Endpoint, RecvDescriptor*) { received.fetch_add(1); });
  CommThreadPool pool(world_.client(1), 2);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      Context& sctx = world_.client(0).context(0);
      while (sctx.send_immediate(1, Endpoint{1, 0}, nullptr, 0, nullptr, 0) !=
             Result::Success) {
        sctx.advance();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let workers drain + re-arm
  }
  EXPECT_TRUE(eventually([&] { return received.load() == 200; }));
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
  pool.stop();
}

TEST_F(CommThreadTest, DoorbellFastWakesSleepingWorker) {
  CommThreadPool pool(world_.client(0), 1);
  ASSERT_TRUE(eventually([&] { return pool.sleeps() > 0; }));
  // The ring is dropped unless the worker is between arm and wake, so keep
  // ringing until one lands while it is parked.
  Context& ctx = world_.client(0).context(0);
  EXPECT_TRUE(eventually([&] {
    pool.ring_doorbell(&ctx);
    return pool.fast_wakes() > 0;
  }));
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
  pool.stop();
}

TEST_F(CommThreadTest, StealWindowMutesWatchAndReringsOnExit) {
  // A blocking caller's steal window (Context::begin_steal/end_steal):
  // while the window is open the commthread is not woken for new work on
  // that context — the stealer is the consumer — and closing the window
  // re-rings the watch if work was left behind, so nothing is stranded.
  CommThreadPool pool(world_.client(0), 1);
  Context& ctx = world_.client(0).context(0);
  ASSERT_TRUE(eventually([&] { return pool.sleeps() > 0; }));

  const std::uint64_t epoch = ctx.begin_steal();
  std::atomic<bool> ran{false};
  ctx.post([&] { ran.store(true); });
  // Muted: the queue-tail store must not wake the sleeping worker. 20ms is
  // well inside the 50ms bounded-sleep backstop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  // Closing the window without having consumed the item re-rings the
  // watch; the worker wakes and drains it.
  ctx.end_steal(epoch);
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
  pool.stop();
}

TEST_F(CommThreadTest, SpinZeroRunsAdaptiveEngineWithoutWindow) {
  ::setenv("PAMIX_COMM_SPIN_US", "0", 1);
  CommThreadPool pool(world_.client(0), 1);
  ::unsetenv("PAMIX_COMM_SPIN_US");
  EXPECT_EQ(pool.spin_us(), 0);
  Context& ctx = world_.client(0).context(0);
  // No window: an idle worker goes straight to sleep and never spins...
  ASSERT_TRUE(eventually([&] { return pool.sleeps() > 0; }));
  EXPECT_EQ(pool.spin_iters(), 0u);
  // ...the doorbell exists and wakes it...
  EXPECT_TRUE(eventually([&] {
    pool.ring_doorbell(&ctx);
    return pool.fast_wakes() > 0;
  }));
  // ...a steal window mutes the per-context watch (taken right after a
  // fresh sleep starts, so the 50ms backstop cannot end it mid-check)...
  const std::uint64_t slept = pool.sleeps();
  ASSERT_TRUE(eventually([&] { return pool.sleeps() > slept; }));
  const std::uint64_t epoch = ctx.begin_steal();
  std::atomic<bool> ran{false};
  ctx.post([&] { ran.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  // ...and posted work runs once the window closes.
  ctx.end_steal(epoch);
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
  pool.stop();
}

}  // namespace
}  // namespace pamix::pami

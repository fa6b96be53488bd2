#include "hw/l2_atomics.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace pamix::hw {
namespace {

TEST(L2Atomics, LoadIncrementReturnsPriorValue) {
  L2Word w(41);
  EXPECT_EQ(l2::load_increment(w), 41u);
  EXPECT_EQ(l2::load(w), 42u);
}

TEST(L2Atomics, LoadDecrementReturnsPriorValue) {
  L2Word w(10);
  EXPECT_EQ(l2::load_decrement(w), 10u);
  EXPECT_EQ(l2::load(w), 9u);
}

TEST(L2Atomics, LoadClearReturnsAndZeroes) {
  L2Word w(0xDEADu);
  EXPECT_EQ(l2::load_clear(w), 0xDEADu);
  EXPECT_EQ(l2::load(w), 0u);
}

TEST(L2Atomics, StoreAddOrXorMax) {
  L2Word w(0b0001);
  l2::store_add(w, 1);
  EXPECT_EQ(l2::load(w), 2u);
  l2::store_or(w, 0b1000);
  EXPECT_EQ(l2::load(w), 0b1010u);
  l2::store_xor(w, 0b0010);
  EXPECT_EQ(l2::load(w), 0b1000u);
  l2::store_max_unsigned(w, 5);
  EXPECT_EQ(l2::load(w), 8u);  // 8 > 5: unchanged
  l2::store_max_unsigned(w, 100);
  EXPECT_EQ(l2::load(w), 100u);
}

TEST(L2Atomics, BoundedIncrementStopsAtBound) {
  L2Word w(0);
  L2Word bound(3);
  EXPECT_EQ(l2::load_increment_bounded(w, bound), 0u);
  EXPECT_EQ(l2::load_increment_bounded(w, bound), 1u);
  EXPECT_EQ(l2::load_increment_bounded(w, bound), 2u);
  EXPECT_EQ(l2::load_increment_bounded(w, bound), kL2BoundedFailure);
  EXPECT_EQ(l2::load(w), 3u);  // failure leaves the word intact
  // Raising the bound re-enables allocation — the queue-consumer pattern.
  l2::store(bound, 4);
  EXPECT_EQ(l2::load_increment_bounded(w, bound), 3u);
}

TEST(L2Atomics, BoundedDecrementStopsAtBound) {
  L2Word w(2);
  L2Word bound(0);
  EXPECT_EQ(l2::load_decrement_bounded(w, bound), 2u);
  EXPECT_EQ(l2::load_decrement_bounded(w, bound), 1u);
  EXPECT_EQ(l2::load_decrement_bounded(w, bound), kL2BoundedFailure);
}

TEST(L2Atomics, StoreTwinComparesAndSwaps) {
  L2Word w(7);
  EXPECT_FALSE(l2::store_twin(w, 8, 9));
  EXPECT_EQ(l2::load(w), 7u);
  EXPECT_TRUE(l2::store_twin(w, 7, 9));
  EXPECT_EQ(l2::load(w), 9u);
}

TEST(L2Atomics, ConcurrentIncrementsAreExact) {
  L2Word w(0);
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) l2::load_increment(w);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(l2::load(w), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(L2Atomics, ConcurrentBoundedIncrementNeverExceedsBound) {
  L2Word w(0);
  L2Word bound(5000);
  std::atomic<int> successes{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (l2::load_increment_bounded(w, bound) != kL2BoundedFailure) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(successes.load(), 5000);
  EXPECT_EQ(l2::load(w), 5000u);
}

TEST(L2AtomicMutex, MutualExclusionUnderContention) {
  L2AtomicMutex mu;
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<L2AtomicMutex> g(mu);
        ++counter;  // unsynchronized except for the mutex
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(L2AtomicMutex, TryLockFailsWhenHeldAndSucceedsWhenFree) {
  L2AtomicMutex mu;
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

// The spin budget is per thread, so each Waiter test runs on a fresh
// thread: it starts from the initial budget and leaves no learned budget
// behind for the other tests.
template <class Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

/// Pin the calling thread to `cpu`; false if the host does not allow it.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return cpu >= 0 && pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

TEST(Waiter, SpinsForItsBudgetThenYieldsEveryPass) {
  on_fresh_thread([] {
    EXPECT_EQ(Waiter::budget(), Waiter::kMaxSpins);
    Waiter w;
    for (int i = 0; i < Waiter::kMaxSpins; ++i) ASSERT_FALSE(w.pause()) << "pass " << i;
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(w.pause());
  });
}

TEST(Waiter, ResetRestartsTheBudget) {
  on_fresh_thread([] {
    Waiter w;
    while (!w.pause()) {
    }
    w.reset();  // a yielding wait; the budget is re-tuned every few of them...
    const int b = Waiter::budget();
    EXPECT_TRUE(b == Waiter::kMaxSpins / 2 || b == Waiter::kMaxSpins) << b;
    // ...and the next wait spins for all of it again before yielding.
    for (int i = 0; i < b; ++i) ASSERT_FALSE(w.pause()) << "pass " << i;
    EXPECT_TRUE(w.pause());
  });
}

TEST(Waiter, ProductivePassesKeepTheWaiterSpinning) {
  on_fresh_thread([] {
    Waiter w;
    for (int i = 0; i < 10 * Waiter::kMaxSpins; ++i) {
      if (i % 8 == 7) {
        w.step(1);  // every eighth pass does work
      } else {
        ASSERT_FALSE(w.pause()) << "pass " << i;
      }
    }
    // Waits that end while spinning, or with no idle pass, teach nothing.
    { Waiter idle; }
    EXPECT_EQ(Waiter::budget(), Waiter::kMaxSpins);
  });
}

TEST(Waiter, NextBudgetHalvesOnContentionAndDoublesOtherwise) {
  EXPECT_EQ(Waiter::next_budget(Waiter::kMaxSpins, true), Waiter::kMaxSpins / 2);
  EXPECT_EQ(Waiter::next_budget(1, true), 0);
  EXPECT_EQ(Waiter::next_budget(0, true), 0);
  EXPECT_EQ(Waiter::next_budget(0, false), 1);  // a zero budget can recover
  EXPECT_EQ(Waiter::next_budget(3, false), 6);
  EXPECT_EQ(Waiter::next_budget(Waiter::kMaxSpins, false), Waiter::kMaxSpins);
  for (int b = 0; b <= Waiter::kMaxSpins; ++b) {
    for (bool contended : {false, true}) {
      const int n = Waiter::next_budget(b, contended);
      EXPECT_GE(n, 0);
      EXPECT_LE(n, Waiter::kMaxSpins);
    }
  }
}

TEST(Waiter, BudgetStaysWithinBoundsOverManyWaits) {
  on_fresh_thread([] {
    for (int wait = 0; wait < 40; ++wait) {
      {
        Waiter w;  // each wait ends, like reset(), when the Waiter goes
        while (!w.pause()) {
        }
      }
      EXPECT_GE(Waiter::budget(), 0);
      EXPECT_LE(Waiter::budget(), Waiter::kMaxSpins);
    }
  });
}

TEST(Waiter, SharingOneCoreDrivesEachThreadsBudgetToZero) {
  // Two threads pinned to one CPU take turns. Each waits for the other,
  // which can only run once the waiter gives up the core, so every wait
  // that reaches its yield sees another thread run and halves the budget.
  bool pinned = true;
  on_fresh_thread([&] {
    if (!pin_to(sched_getcpu())) {
      pinned = false;
      return;
    }
    std::atomic<int> turn{0};
    int budgets[2] = {-1, -1};
    auto player = [&](int me) {
      for (int round = 0; round < 200; ++round) {
        Waiter w;
        while (turn.load(std::memory_order_acquire) != me) w.pause();
        turn.store(1 - me, std::memory_order_release);
      }
      budgets[me] = Waiter::budget();
    };
    std::thread other(player, 1);  // inherits the single-CPU affinity
    player(0);
    other.join();
    EXPECT_EQ(budgets[0], 0);
    EXPECT_EQ(budgets[1], 0);
    // The budget is the thread's own: a new thread starts from the cap.
    int fresh = 0;
    on_fresh_thread([&] { fresh = Waiter::budget(); });
    EXPECT_EQ(fresh, Waiter::kMaxSpins);
  });
  if (!pinned) GTEST_SKIP() << "host does not allow pinning a thread";
}

TEST(L2AtomicDomain, AllocatesDistinctWords) {
  L2AtomicDomain dom;
  L2Word* a = dom.allocate("a");
  L2Word* b = dom.allocate("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dom.allocated_words(), 2u);
  auto block = dom.allocate_block(10, "blk");
  EXPECT_EQ(block.size(), 10u);
  EXPECT_EQ(dom.allocated_words(), 12u);
}

// Property sweep: bounded increment allocates exactly `bound` slots for any
// producer count (the work-queue allocation invariant).
class BoundedIncrementSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoundedIncrementSweep, ExactAllocation) {
  const auto [threads, bound_val] = GetParam();
  L2Word w(0);
  L2Word bound(static_cast<std::uint64_t>(bound_val));
  std::atomic<int> got{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < bound_val; ++i) {
        if (l2::load_increment_bounded(w, bound) != kL2BoundedFailure) got.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(got.load(), bound_val);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundedIncrementSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 7, 64, 1000)));

}  // namespace
}  // namespace pamix::hw

#include "runtime/collective_engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pamix::runtime {
namespace {

TEST(CombineBuffers, DoubleSumMinMax) {
  double acc[3] = {1.0, 5.0, -2.0};
  const double in[3] = {2.0, 3.0, -4.0};
  combine_buffers(hw::CombineOp::Add, hw::CombineType::Double, acc, in, sizeof(acc));
  EXPECT_DOUBLE_EQ(acc[0], 3.0);
  combine_buffers(hw::CombineOp::Min, hw::CombineType::Double, acc, in, sizeof(acc));
  EXPECT_DOUBLE_EQ(acc[1], 3.0);
  combine_buffers(hw::CombineOp::Max, hw::CombineType::Double, acc, in, sizeof(acc));
  EXPECT_DOUBLE_EQ(acc[2], -4.0);  // min applied then max against in again
}

TEST(CombineBuffers, IntegerBitwise) {
  std::uint64_t acc[2] = {0b1100, 0b1010};
  const std::uint64_t in[2] = {0b1010, 0b0110};
  combine_buffers(hw::CombineOp::BitwiseAnd, hw::CombineType::Uint64, acc, in, sizeof(acc));
  EXPECT_EQ(acc[0], 0b1000u);
  combine_buffers(hw::CombineOp::BitwiseXor, hw::CombineType::Uint64, acc, in, sizeof(acc));
  EXPECT_EQ(acc[0], 0b0010u);
}

TEST(CollectiveEngine, ReduceCombinesAllContributionsAndWritesAllDests) {
  CollectiveNetworkEngine eng(4);
  std::vector<std::vector<double>> ins(4, std::vector<double>(8));
  std::vector<std::vector<double>> outs(4, std::vector<double>(8));
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 8; ++i) ins[static_cast<std::size_t>(n)][static_cast<std::size_t>(i)] = n + i;
  }
  std::vector<CollectiveNetworkEngine::Ticket> tickets;
  for (int n = 0; n < 4; ++n) {
    tickets.push_back(eng.contribute_reduce(0, ins[static_cast<std::size_t>(n)].data(),
                                            8 * sizeof(double), hw::CombineOp::Add,
                                            hw::CombineType::Double,
                                            outs[static_cast<std::size_t>(n)].data()));
    if (n < 3) {
      EXPECT_FALSE(eng.done(tickets.back()));
    }
  }
  for (const auto& t : tickets) EXPECT_TRUE(eng.done(t));
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(outs[static_cast<std::size_t>(n)][static_cast<std::size_t>(i)],
                       6.0 + 4.0 * i);
    }
  }
}

TEST(CollectiveEngine, BroadcastDeliversRootData) {
  CollectiveNetworkEngine eng(3);
  const std::vector<int> root_data{1, 2, 3, 4};
  std::vector<int> out_a(4), out_b(4), out_root(4);
  eng.contribute_broadcast(0, false, nullptr, 4 * sizeof(int), out_a.data());
  eng.contribute_broadcast(0, true, root_data.data(), 4 * sizeof(int), out_root.data());
  auto t = eng.contribute_broadcast(0, false, nullptr, 4 * sizeof(int), out_b.data());
  EXPECT_TRUE(eng.done(t));
  EXPECT_EQ(out_a, root_data);
  EXPECT_EQ(out_b, root_data);
  EXPECT_EQ(out_root, root_data);
}

TEST(CollectiveEngine, PipelinedRoundsDoNotInterfere) {
  CollectiveNetworkEngine eng(2);
  double a0 = 1, b0 = 2, a1 = 10, b1 = 20;
  double ra0 = 0, rb0 = 0, ra1 = 0, rb1 = 0;
  // Node A races ahead to round 1 before node B finishes round 0.
  eng.contribute_reduce(0, &a0, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &ra0);
  eng.contribute_reduce(1, &a1, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &ra1);
  eng.contribute_reduce(0, &b0, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &rb0);
  auto t = eng.contribute_reduce(1, &b1, sizeof(double), hw::CombineOp::Add,
                                 hw::CombineType::Double, &rb1);
  EXPECT_TRUE(eng.done(t));
  EXPECT_DOUBLE_EQ(ra0, 3.0);
  EXPECT_DOUBLE_EQ(rb0, 3.0);
  EXPECT_DOUBLE_EQ(ra1, 30.0);
  EXPECT_DOUBLE_EQ(rb1, 30.0);
}

TEST(CollectiveEngine, ManyRoundsPruneState) {
  CollectiveNetworkEngine eng(1);
  double x = 1, r = 0;
  for (std::uint64_t round = 0; round < 500; ++round) {
    auto t = eng.contribute_reduce(round, &x, sizeof(double), hw::CombineOp::Add,
                                   hw::CombineType::Double, &r);
    EXPECT_TRUE(eng.done(t));
  }
  SUCCEED();  // no unbounded growth assertion needed — pruning is internal
}

TEST(CollectiveEngine, CompletionHookFiresOnceWhenRoundLands) {
  CollectiveNetworkEngine eng(3);
  double in = 1.0;
  double outs[3] = {0, 0, 0};
  int fired = 0;
  auto hook = [](void* arg) { ++*static_cast<int*>(arg); };
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &outs[0], hook, &fired);
  EXPECT_EQ(fired, 0);  // round not complete: hook must not fire early
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &outs[1]);
  EXPECT_EQ(fired, 0);
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &outs[2]);
  EXPECT_EQ(fired, 1);
  // The hook observes the RDMA-written result: fires after the copies.
  EXPECT_DOUBLE_EQ(outs[0], 3.0);
}

TEST(CollectiveEngine, EveryContributorHookFires) {
  CollectiveNetworkEngine eng(2);
  int a = 0, b = 0;
  auto hook = [](void* arg) { ++*static_cast<int*>(arg); };
  double in = 1.0, out0 = 0, out1 = 0;
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &out0, hook, &a);
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &out1, hook, &b);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(CollectiveEngine, HookMayReenterTheEngine) {
  // A completion hook arming the next round is exactly the pipeline's
  // shape; the engine must run hooks outside its lock to allow it.
  CollectiveNetworkEngine eng(1);
  struct Chain {
    CollectiveNetworkEngine* eng;
    double in = 1.0;
    double out = 0.0;
    int rounds = 0;
  } chain{&eng};
  auto hook = [](void* arg) {
    auto* c = static_cast<Chain*>(arg);
    if (++c->rounds < 5) {
      c->eng->contribute_reduce(static_cast<std::uint64_t>(c->rounds), &c->in, sizeof(double),
                                hw::CombineOp::Add, hw::CombineType::Double, &c->out,
                                [](void* a) { ++static_cast<Chain*>(a)->rounds; }, arg);
    }
  };
  eng.contribute_reduce(0, &chain.in, sizeof(double), hw::CombineOp::Add,
                        hw::CombineType::Double, &chain.out, hook, &chain);
  EXPECT_GE(chain.rounds, 2);  // round 0's hook armed round 1, whose hook ran
}

TEST(CollectiveEngine, BroadcastHookFires) {
  CollectiveNetworkEngine eng(2);
  const std::vector<int> root_data{7, 8};
  std::vector<int> out(2);
  int fired = 0;
  auto hook = [](void* arg) { ++*static_cast<int*>(arg); };
  eng.contribute_broadcast(0, true, root_data.data(), 2 * sizeof(int), nullptr, hook, &fired);
  EXPECT_EQ(fired, 0);
  eng.contribute_broadcast(0, false, nullptr, 2 * sizeof(int), out.data(), hook, &fired);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(out, root_data);
}

TEST(CollectiveEngine, ConcurrentContributorsFromThreads) {
  CollectiveNetworkEngine eng(8);
  std::vector<std::thread> ts;
  std::vector<double> outs(8);
  for (int n = 0; n < 8; ++n) {
    ts.emplace_back([&eng, &outs, n] {
      for (std::uint64_t round = 0; round < 50; ++round) {
        const double v = n + 1.0;
        auto t = eng.contribute_reduce(round, &v, sizeof(double), hw::CombineOp::Add,
                                       hw::CombineType::Double,
                                       &outs[static_cast<std::size_t>(n)]);
        while (!eng.done(t)) std::this_thread::yield();
        EXPECT_DOUBLE_EQ(outs[static_cast<std::size_t>(n)], 36.0);
      }
    });
  }
  for (auto& t : ts) t.join();
}

TEST(CollectiveEngine, FirstArriverDestHoldsFinalResult) {
  // The first contributor's dest doubles as the round's accumulator; once
  // the round completes it must hold the combined result like every other.
  CollectiveNetworkEngine eng(3);
  const std::vector<double> a{1, 2, 3}, b{10, 20, 30}, c{100, 200, 300};
  std::vector<double> out_a(3, -1), out_b(3, -1), out_c(3, -1);
  const std::vector<double> want{111, 222, 333};
  eng.contribute_reduce(0, a.data(), 3 * sizeof(double), hw::CombineOp::Add,
                        hw::CombineType::Double, out_a.data());
  eng.contribute_reduce(0, b.data(), 3 * sizeof(double), hw::CombineOp::Add,
                        hw::CombineType::Double, out_b.data());
  auto t = eng.contribute_reduce(0, c.data(), 3 * sizeof(double), hw::CombineOp::Add,
                                 hw::CombineType::Double, out_c.data());
  EXPECT_TRUE(eng.done(t));
  EXPECT_EQ(out_a, want);
  EXPECT_EQ(out_b, want);
  EXPECT_EQ(out_c, want);
  EXPECT_EQ(a, (std::vector<double>{1, 2, 3}));  // contributions are only read
}

TEST(CollectiveEngine, InPlaceContributionsAtEveryPosition) {
  // data == dest for the first (no copy: the buffer is the accumulator),
  // a middle (combined into the accumulator, overwritten at the end) and
  // the last contributor (combined block by block and written back).
  CollectiveNetworkEngine eng(3);
  std::vector<std::int64_t> x{1, 2, 3, 4}, y{5, 6, 7, 8}, z{9, 10, 11, 12};
  const std::vector<std::int64_t> want{15, 18, 21, 24};
  for (auto* v : {&x, &y, &z}) {
    eng.contribute_reduce(0, v->data(), v->size() * sizeof(std::int64_t), hw::CombineOp::Add,
                          hw::CombineType::Int64, v->data());
  }
  EXPECT_EQ(x, want);
  EXPECT_EQ(y, want);
  EXPECT_EQ(z, want);
}

TEST(CollectiveEngine, BroadcastRootWithoutDestArrivingFirst) {
  CollectiveNetworkEngine eng(3);
  std::vector<int> root_data{4, 5, 6};
  std::vector<int> out_a(3), out_b(3);
  eng.contribute_broadcast(0, true, root_data.data(), 3 * sizeof(int), nullptr);
  root_data.assign({-1, -1, -1});  // consumed by the time the call returned
  eng.contribute_broadcast(0, false, nullptr, 3 * sizeof(int), out_a.data());
  auto t = eng.contribute_broadcast(0, false, nullptr, 3 * sizeof(int), out_b.data());
  EXPECT_TRUE(eng.done(t));
  EXPECT_EQ(out_a, (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(out_b, (std::vector<int>{4, 5, 6}));
}

TEST(CollectiveEngine, BroadcastRootWithoutDestArrivingLast) {
  CollectiveNetworkEngine eng(3);
  const std::vector<int> root_data{7, 8, 9};
  std::vector<int> out_a(3), out_b(3);
  eng.contribute_broadcast(0, false, nullptr, 3 * sizeof(int), out_a.data());
  eng.contribute_broadcast(0, false, nullptr, 3 * sizeof(int), out_b.data());
  auto t = eng.contribute_broadcast(0, true, root_data.data(), 3 * sizeof(int), nullptr);
  EXPECT_TRUE(eng.done(t));
  EXPECT_EQ(out_a, root_data);
  EXPECT_EQ(out_b, root_data);
}

TEST(CollectiveEngine, FourWayReduceWithPartialFanoutBlock) {
  // 64 KB plus a tail that is not a multiple of the 4 KB fan-out block:
  // every element of every dest must hold the sum, the tail included.
  constexpr std::size_t kElems = (64 * 1024 + 8 * 123) / sizeof(double);
  CollectiveNetworkEngine eng(4);
  std::vector<std::vector<double>> ins(4, std::vector<double>(kElems));
  std::vector<std::vector<double>> outs(4, std::vector<double>(kElems, -1.0));
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t i = 0; i < kElems; ++i) {
      ins[n][i] = static_cast<double>(n * 100000 + i);
    }
  }
  for (std::size_t n = 0; n < 4; ++n) {
    eng.contribute_reduce(0, ins[n].data(), kElems * sizeof(double), hw::CombineOp::Add,
                          hw::CombineType::Double, outs[n].data());
  }
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t i = 0; i < kElems; ++i) {
      ASSERT_EQ(outs[n][i], static_cast<double>(600000 + 4 * i)) << "dest " << n << " elem " << i;
    }
  }
}

TEST(CollectiveEngine, TwoThreadsPipelineRoundsInFlight) {
  // Two contributors, each reusing one staging buffer (a contribution is
  // consumed by return), keep up to 8 rounds of 64 KB in flight; rounds
  // complete on either thread, and every element of every dest is checked.
  constexpr std::uint64_t kRounds = 32;
  constexpr std::uint64_t kInflight = 8;
  constexpr std::size_t kElems = 64 * 1024 / sizeof(std::uint64_t);
  CollectiveNetworkEngine eng(2);
  std::vector<std::vector<std::uint64_t>> dests(2 * kRounds,
                                                std::vector<std::uint64_t>(kElems));
  auto run = [&](std::uint64_t t) {
    std::vector<std::uint64_t> stage(kElems);
    std::vector<CollectiveNetworkEngine::Ticket> tickets;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      if (r >= kInflight) {
        while (!eng.done(tickets[r - kInflight])) std::this_thread::yield();
      }
      for (std::size_t i = 0; i < kElems; ++i) stage[i] = (t + 1) * (r + 1) * 1000000 + i;
      tickets.push_back(eng.contribute_reduce(r, stage.data(), kElems * sizeof(std::uint64_t),
                                              hw::CombineOp::Add, hw::CombineType::Uint64,
                                              dests[t * kRounds + r].data()));
    }
    for (const auto& tk : tickets) {
      while (!eng.done(tk)) std::this_thread::yield();
    }
  };
  std::thread other(run, 1);
  run(0);
  other.join();
  for (std::uint64_t t = 0; t < 2; ++t) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const auto& d = dests[t * kRounds + r];
      for (std::size_t i = 0; i < kElems; ++i) {
        ASSERT_EQ(d[i], 3 * (r + 1) * 1000000 + 2 * i) << "thread " << t << " round " << r;
      }
    }
  }
}

TEST(CollectiveEngineDeathTest, MoreThan64RoundsInFlightAborts) {
  // Round r shares a ring slot with round r-64: reaching it while round
  // r-64 still waits for a contributor is a broken pipeline bound, and it
  // must fail loudly rather than corrupt the older round.
  CollectiveNetworkEngine eng(2);
  double in = 1.0, out = 0.0;
  EXPECT_DEATH(
      {
        for (std::uint64_t round = 0; round <= 64; ++round) {
          eng.contribute_reduce(round, &in, sizeof(double), hw::CombineOp::Add,
                                hw::CombineType::Double, &out);
        }
      },
      "more than 64 rounds in flight");
}

TEST(CollectiveEngineDeathTest, SecondContributionToFinishedRoundAborts) {
  CollectiveNetworkEngine eng(1);
  double in = 1.0, out = 0.0;
  eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add, hw::CombineType::Double,
                        &out);
  EXPECT_DEATH(eng.contribute_reduce(0, &in, sizeof(double), hw::CombineOp::Add,
                                     hw::CombineType::Double, &out),
               "already-completed round");
}

}  // namespace
}  // namespace pamix::runtime

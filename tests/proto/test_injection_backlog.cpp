// Idle-cheap advance: the MU device walks only injection FIFOs whose
// backlog bit is set, and the shm device skips its router lock when
// nothing is queued or staged. These tests pin the contracts that make the
// shortcut safe: every way a descriptor can be left in an owned FIFO sets
// its bit (so advancing the sender alone, with no new send, finishes the
// injection), a backlogged context is not idle (so commthreads keep
// polling it), and a packet staged for a sibling context is never missed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/commthread.h"
#include "core/context.h"
#include "core/shmem_device.h"
#include "runtime/machine.h"

namespace pamix::pami {
namespace {

/// Two single-task nodes whose reception FIFOs hold `rec_packets` packets:
/// a sender outruns the receiver after a handful of packets.
struct TinyRecWorld {
  explicit TinyRecWorld(std::size_t rec_packets, std::size_t inj_descs = 256)
      : machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1, options(rec_packets, inj_descs)),
        world(machine, ClientConfig{}),
        tx(world.client(0).context(0)),
        rx(world.client(1).context(0)) {}

  static runtime::MachineOptions options(std::size_t rec_packets, std::size_t inj_descs) {
    runtime::MachineOptions o;
    o.rec_fifo_capacity = rec_packets;
    o.inj_fifo_capacity = inj_descs;
    return o;
  }

  /// Count deliveries on dispatch 1; each message's bytes land in `msgs`.
  void count_on_rx() {
    rx.set_dispatch(1, [this](Context&, const void*, std::size_t, const void* data,
                              std::size_t data_bytes, std::size_t total, Endpoint,
                              RecvDescriptor* recv) {
      if (recv == nullptr) {  // the whole message came in its first packet
        const auto* p = static_cast<const std::byte*>(data);
        msgs.emplace_back(p, p + data_bytes);
        delivered.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      msgs.emplace_back(total);
      recv->buffer = msgs.back().data();
      recv->bytes = total;
      recv->on_complete = [this] { delivered.fetch_add(1, std::memory_order_relaxed); };
    });
  }

  Result send_bytes(const std::vector<std::byte>& payload) {
    SendParams p;
    p.dispatch = 1;
    p.dest = Endpoint{1, 0};
    p.data = payload.data();
    p.data_bytes = payload.size();
    return tx.send(p);
  }

  runtime::Machine machine;
  ClientWorld world;
  Context& tx;
  Context& rx;
  std::atomic<int> delivered{0};
  std::deque<std::vector<std::byte>> msgs;  // stable addresses for landing buffers
};

/// Drain the receiver, then advance the sender alone with `advance_tx`;
/// repeat until `want` messages arrived. Returns rounds taken (or -1).
template <typename AdvanceTx>
int drain_then_sender_only(TinyRecWorld& w, int want, AdvanceTx&& advance_tx) {
  for (int round = 0; round < 1000; ++round) {
    while (w.rx.advance() > 0) {
    }
    if (w.delivered.load() >= want) return round;
    advance_tx();
  }
  return -1;
}

TEST(InjectionBacklog, FailedPushIsFinishedBySenderAdvanceAlone) {
  // Two-slot injection FIFO, two-packet reception FIFO: the fifth
  // immediate send cannot be pushed and bounces with Eagain.
  TinyRecWorld w(/*rec_packets=*/2, /*inj_descs=*/2);
  w.count_on_rx();
  int sent = 0;
  Result r = Result::Success;
  while (sent < 16) {
    r = w.tx.send_immediate(1, Endpoint{1, 0}, nullptr, 0, nullptr, 0);
    if (r != Result::Success) break;
    ++sent;
  }
  ASSERT_EQ(r, Result::Eagain);
  ASSERT_GT(sent, 2);  // some descriptors are still queued at the sender
  EXPECT_FALSE(w.tx.idle()) << "a backlogged FIFO is poll-only work";
  EXPECT_TRUE(w.tx.has_pending_state());

  // No new send from here on: only the sender's own advance moves them.
  ASSERT_GE(drain_then_sender_only(w, sent, [&] { w.tx.advance(); }), 0);
  EXPECT_EQ(w.delivered.load(), sent);
  EXPECT_TRUE(w.tx.idle());
  EXPECT_FALSE(w.tx.has_pending_state());
}

TEST(InjectionBacklog, MidMessageBackpressureIsResumedBySenderAdvanceAlone) {
  // A 2.5 KB eager message is five packets; the receiver takes two at a
  // time, so the push succeeds but its kick leaves the descriptor
  // half-injected.
  TinyRecWorld w(/*rec_packets=*/2);
  w.count_on_rx();
  std::vector<std::byte> payload(2560);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i * 7);
  ASSERT_EQ(w.send_bytes(payload), Result::Success);
  EXPECT_FALSE(w.tx.idle());

  const int rounds = drain_then_sender_only(w, 1, [&] { w.tx.advance(); });
  ASSERT_GE(rounds, 2);  // took several sender-only passes, two packets each
  ASSERT_EQ(w.msgs.size(), 1u);
  EXPECT_EQ(w.msgs.front(), payload);
  EXPECT_TRUE(w.tx.idle());
  EXPECT_FALSE(w.tx.has_pending_state());
}

TEST(InjectionBacklog, EndpointInjectionRetryFinishesBacklog) {
  // The bound-endpoint retry step: advance_injection() alone (no
  // reception, no work queue) must walk the backlogged FIFOs. Every push
  // fits, so only the kicks left work behind.
  TinyRecWorld w(/*rec_packets=*/2);
  w.count_on_rx();
  std::vector<std::byte> payload(1024, std::byte{0x5a});
  constexpr int kSends = 3;
  for (int i = 0; i < kSends; ++i) ASSERT_EQ(w.send_bytes(payload), Result::Success);
  EXPECT_FALSE(w.tx.idle());

  ASSERT_GE(drain_then_sender_only(w, kSends, [&] { w.tx.advance_injection(); }), 0);
  EXPECT_EQ(w.delivered.load(), kSends);
  for (const auto& m : w.msgs) EXPECT_EQ(m, payload);
  EXPECT_TRUE(w.tx.idle());
}

TEST(InjectionBacklog, CommthreadKeepsPollingBackloggedFifo) {
  // The sender is driven by a commthread; nothing it watches is written
  // when the receiver makes room, so only "backlog is not idle" keeps it
  // polling. A sleep here would end on the 50 ms backstop and count as a
  // timeout — or, since the worker's own unlock re-rings the backlogged
  // context's watch, fall straight through: a loop of arm-and-notify
  // "sleeps" in place of a poll.
  TinyRecWorld w(/*rec_packets=*/4);
  w.count_on_rx();
  CommThreadPool pool(w.world.client(0), 1);
  // All pushes fit the injection FIFO; all but four packets stay queued
  // behind the full reception FIFO until the receiver below drains it.
  constexpr int kSends = 64;
  for (int i = 0; i < kSends; ++i) {
    w.tx.lock();
    const Result r = w.tx.send_immediate(1, Endpoint{1, 0}, nullptr, 0, nullptr, 0);
    w.tx.unlock();
    ASSERT_EQ(r, Result::Success);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (w.delivered.load() < kSends && std::chrono::steady_clock::now() < deadline) {
    if (w.rx.advance() == 0) std::this_thread::yield();
  }
  EXPECT_EQ(w.delivered.load(), kSends);
  pool.stop();
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
  // A handful of real sleeps (before the first send, after the drain) at
  // most; the backlog itself is polled, never slept on.
  EXPECT_LT(pool.sleeps(), 64u);
}

TEST(IdleAdvance, ShmPacketStagedForSiblingIsNotIdle) {
  // A sibling context's advance routes our packet into our staging: the
  // lock-free idle(ctx) must see it, and our advance must take it.
  ShmDevice dev(/*context_count=*/2, /*queue_capacity=*/8, /*wakeup=*/nullptr);
  EXPECT_TRUE(dev.idle(0));
  EXPECT_TRUE(dev.idle(1));
  for (int i = 0; i < 3; ++i) {
    ShmPacket p;
    p.dest_context = 1;
    p.metadata = static_cast<std::uint64_t>(i);
    dev.queue().push(std::move(p));
  }
  EXPECT_FALSE(dev.idle(0));  // queued, not yet routed
  int mine = 0;
  EXPECT_EQ(dev.advance(0, [&](ShmPacket&&) { ++mine; }), 0u);
  EXPECT_EQ(mine, 0);
  EXPECT_TRUE(dev.idle(0));
  EXPECT_FALSE(dev.idle(1));
  std::vector<std::uint64_t> got;
  EXPECT_EQ(dev.advance(1, [&](ShmPacket&& p) { got.push_back(p.metadata); }), 3u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(dev.idle(1));
  EXPECT_EQ(dev.advance(1, [&](ShmPacket&&) { ADD_FAILURE(); }), 0u);
}

TEST(IdleAdvance, CommthreadsDrainShmTrafficForSiblingContexts) {
  // One node, two tasks; the receiving task has two contexts, each on its
  // own commthread, so either may route the other's packets while the
  // other reads its staged count from its sleep check.
  runtime::Machine machine(hw::TorusGeometry({1, 1, 1, 1, 1}), 2);
  ClientConfig c;
  c.contexts_per_task = 2;
  ClientWorld world(machine, c);
  std::atomic<int> delivered{0};
  for (int k = 0; k < 2; ++k) {
    world.client(1).context(k).set_dispatch(
        1, [&](Context&, const void*, std::size_t, const void*, std::size_t, std::size_t,
               Endpoint, RecvDescriptor*) { delivered.fetch_add(1, std::memory_order_relaxed); });
  }
  CommThreadPool pool(world.client(1), 2);
  constexpr int kSends = 400;
  Context& tx = world.client(0).context(0);
  for (int i = 0; i < kSends; ++i) {
    const Endpoint dest{1, static_cast<std::int16_t>(i % 2)};
    while (tx.send_immediate(1, dest, nullptr, 0, &i, sizeof(i)) != Result::Success) {
      tx.advance();
    }
    if (i % 50 == 49) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered.load() < kSends && std::chrono::steady_clock::now() < deadline) {
    tx.advance();
    std::this_thread::yield();
  }
  EXPECT_EQ(delivered.load(), kSends);
  pool.stop();
  EXPECT_EQ(pool.sleep_timeouts(), 0u);
}

}  // namespace
}  // namespace pamix::pami

#include "hw/mu.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "hw/wakeup_unit.h"

namespace pamix::hw {
namespace {

/// Test transport: routes packets among a set of MUs, with an optional
/// artificial backpressure budget.
class TestFabric : public NetworkPort {
 public:
  std::vector<std::unique_ptr<MessagingUnit>> mus;
  int accept_budget = INT32_MAX;  // packets accepted before backpressure
  std::uint64_t transmitted = 0;  // packets accepted
  std::uint64_t bursts = 0;       // transmit() calls

  MessagingUnit& make_mu(int node, WakeupUnit* wu = nullptr, std::size_t rec_capacity = 4096) {
    mus.resize(std::max<std::size_t>(mus.size(), static_cast<std::size_t>(node) + 1));
    auto mu = std::make_unique<MessagingUnit>(node, this, wu, 128, rec_capacity);
    mus[static_cast<std::size_t>(node)] = std::move(mu);
    return *mus[static_cast<std::size_t>(node)];
  }

  std::size_t transmit(MuPacket* pkts, std::size_t n) override {
    ++bursts;
    const std::size_t budget = static_cast<std::size_t>(std::max(accept_budget, 0));
    const std::size_t taken = mus[static_cast<std::size_t>(pkts[0].dest_node)]->receive(
        pkts, std::min(n, budget));
    accept_budget -= static_cast<int>(taken);
    transmitted += taken;
    return taken;
  }
};

/// Append one packet to a reception FIFO as a burst of one.
bool deliver(RecFifo& f, MuPacket p) { return f.deliver(&p, 1) == 1; }

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 31 + 7);
  return v;
}

TEST(InjFifo, PushPopFifoOrder) {
  InjFifo f(4);
  for (int i = 0; i < 4; ++i) {
    MuDescriptor d;
    d.dest_node = i;
    EXPECT_TRUE(f.push(std::move(d)));
  }
  MuDescriptor overflow;
  EXPECT_FALSE(f.push(std::move(overflow)));  // full
  MuDescriptor out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(f.pop(out));
    EXPECT_EQ(out.dest_node, i);
  }
  EXPECT_FALSE(f.pop(out));
  EXPECT_EQ(f.injected_total(), 4u);
}

TEST(RecFifo, DeliverPollAndBackpressure) {
  RecFifo f(2);
  MuPacket p;
  p.sw.msg_seq = 1;
  EXPECT_TRUE(deliver(f, p.clone()));
  EXPECT_TRUE(deliver(f, p.clone()));
  EXPECT_FALSE(deliver(f, p.clone()));  // full: network must retry
  MuPacket out;
  EXPECT_TRUE(f.poll(out));
  EXPECT_TRUE(deliver(f, p.clone()));  // space reopened
  EXPECT_EQ(f.delivered_count().load(), 3u);
}

TEST(RecFifo, BatchedPollDrainsInFifoOrder) {
  RecFifo f(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    MuPacket p;
    p.sw.msg_seq = i;
    ASSERT_TRUE(deliver(f, std::move(p)));
  }
  MuPacket batch[4];
  std::uint64_t expect = 0;
  std::size_t n;
  while ((n = f.poll_batch(batch, 4)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i].sw.msg_seq, expect++);
    }
  }
  EXPECT_EQ(expect, 10u);
  EXPECT_TRUE(f.empty());
}

TEST(MessagingUnit, FifoCountsMatchBgq) {
  TestFabric fab;
  MessagingUnit& mu = fab.make_mu(0);
  EXPECT_EQ(mu.inj_fifos_available(), 544);
  EXPECT_EQ(mu.rec_fifos_available(), 272);
  auto inj = mu.allocate_inj_fifos(32);
  EXPECT_EQ(inj.size(), 32u);
  EXPECT_EQ(mu.inj_fifos_available(), 512);
}

TEST(MessagingUnit, MemoryFifoMessageIsPacketizedAndReassembled) {
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  fab.make_mu(1);
  const auto payload = pattern(1500);  // 3 packets: 512+512+476

  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 5;
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  d.sw.msg_bytes = static_cast<std::uint32_t>(payload.size());
  bool injected = false;
  d.on_injected = [&] { injected = true; };
  ASSERT_TRUE(src.inj_fifo(3).push(std::move(d)));
  EXPECT_EQ(src.advance_injection({3}), 1);
  EXPECT_TRUE(injected);
  EXPECT_EQ(fab.transmitted, 3u);

  RecFifo& rf = fab.mus[1]->rec_fifo(5);
  std::vector<std::byte> got(payload.size());
  MuPacket pkt;
  std::size_t received = 0;
  while (rf.poll(pkt)) {
    std::memcpy(got.data() + pkt.sw.packet_offset, pkt.payload.data(), pkt.payload.size());
    received += pkt.payload.size();
    EXPECT_LE(pkt.payload.size(), kMaxPacketPayload);
  }
  EXPECT_EQ(received, payload.size());
  EXPECT_EQ(got, payload);
}

TEST(MessagingUnit, DirectPutWritesMemoryAndDecrementsCounter) {
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  fab.make_mu(1);
  const auto payload = pattern(2048);
  std::vector<std::byte> dest(2048);
  MuReceptionCounter counter;
  counter.prime(2048);

  MuDescriptor d;
  d.type = MuPacketType::DirectPut;
  d.dest_node = 1;
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  d.put_dest = dest.data();
  d.rec_counter = &counter;
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));
  src.advance_injection({0});
  EXPECT_TRUE(counter.complete());
  EXPECT_EQ(dest, payload);
  EXPECT_EQ(fab.mus[1]->packets_received(MuPacketType::DirectPut), 4u);
}

TEST(MessagingUnit, RemoteGetExecutesRdmaRead) {
  TestFabric fab;
  MessagingUnit& requester = fab.make_mu(0);
  fab.make_mu(1);
  const auto remote_data = pattern(1000);
  std::vector<std::byte> local(1000);
  MuReceptionCounter counter;
  counter.prime(1000);

  auto pull = std::make_shared<MuDescriptor>();
  pull->type = MuPacketType::DirectPut;
  pull->dest_node = 0;  // data flows back to the requester
  pull->payload = remote_data.data();
  pull->payload_bytes = remote_data.size();
  pull->put_dest = local.data();
  pull->rec_counter = &counter;

  MuDescriptor d;
  d.type = MuPacketType::RemoteGet;
  d.dest_node = 1;
  d.remote_payload = std::move(pull);
  ASSERT_TRUE(requester.inj_fifo(0).push(std::move(d)));
  requester.advance_injection({0});
  EXPECT_TRUE(counter.complete());
  EXPECT_EQ(local, remote_data);
}

TEST(MessagingUnit, ZeroByteMessageStillFlows) {
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  fab.make_mu(1);
  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 0;
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));
  src.advance_injection({0});
  MuPacket pkt;
  ASSERT_TRUE(fab.mus[1]->rec_fifo(0).poll(pkt));
  EXPECT_TRUE(pkt.payload.empty());
}

TEST(MessagingUnit, BackpressureResumesMidMessage) {
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  fab.make_mu(1);
  const auto payload = pattern(5 * 512);
  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 1;
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));

  fab.accept_budget = 2;  // only two packets fit before backpressure
  EXPECT_EQ(src.advance_injection({0}), 0);  // not fully injected
  EXPECT_EQ(fab.transmitted, 2u);
  fab.accept_budget = INT32_MAX;
  EXPECT_EQ(src.advance_injection({0}), 1);  // resumes where it stopped
  EXPECT_EQ(fab.transmitted, 5u);

  // Reassemble and verify nothing was duplicated or dropped.
  std::vector<std::byte> got(payload.size());
  MuPacket pkt;
  std::size_t received = 0;
  while (fab.mus[1]->rec_fifo(1).poll(pkt)) {
    std::memcpy(got.data() + pkt.sw.packet_offset, pkt.payload.data(), pkt.payload.size());
    received += pkt.payload.size();
  }
  EXPECT_EQ(received, payload.size());
  EXPECT_EQ(got, payload);
}

TEST(MessagingUnit, WakeupNotifiedOnMemoryFifoDelivery) {
  TestFabric fab;
  WakeupUnit wu;
  MessagingUnit& src = fab.make_mu(0);
  MessagingUnit& dst = fab.make_mu(1, &wu);
  const auto h = wu.watch(&dst.rec_fifo(2).delivered_count(), sizeof(std::uint64_t));
  const std::uint64_t armed = wu.arm(h);

  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 2;
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));
  src.advance_injection({0});
  EXPECT_TRUE(wu.wait_for(h, armed, std::chrono::milliseconds(100)));
}

TEST(MessagingUnit, InjectionFramesFixedBursts) {
  // 40 packets leave as bursts of 16, 16 and 8: the fabric sees three
  // transmit calls, and the receiving MU counts every packet.
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  fab.make_mu(1);
  const auto payload = pattern(40 * kMaxPacketPayload);
  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 0;
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));
  EXPECT_EQ(src.advance_injection(0), 1);
  EXPECT_EQ(fab.bursts, 3u);
  EXPECT_EQ(fab.transmitted, 40u);
  EXPECT_EQ(fab.mus[1]->packets_received(MuPacketType::MemoryFifo), 40u);
  EXPECT_EQ(src.obs().pvars.get(obs::Pvar::PacketsInjected), 40u);
}

TEST(MessagingUnit, RecFifoSmallerThanABurstReassemblesInOrder) {
  // A 5-slot reception FIFO takes at most 5 packets of each 16-packet
  // burst; injection resumes at the first rejected packet after each
  // drain, so the 37-packet message arrives complete and in order.
  TestFabric fab;
  MessagingUnit& src = fab.make_mu(0);
  MessagingUnit& dst = fab.make_mu(1, nullptr, /*rec_capacity=*/5);
  const auto payload = pattern(36 * kMaxPacketPayload + 100);
  MuDescriptor d;
  d.type = MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 3;
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  int completions = 0;
  d.on_injected = [&completions] { ++completions; };
  ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));

  std::vector<std::byte> got;
  std::uint64_t polled = 0;
  for (int pass = 0; pass < 100 && completions == 0; ++pass) {
    src.advance_injection(0);
    MuPacket pkt;
    while (dst.rec_fifo(3).poll(pkt)) {
      EXPECT_EQ(pkt.sw.packet_offset, got.size()) << "packet " << polled << " out of order";
      got.insert(got.end(), pkt.payload.data(), pkt.payload.data() + pkt.payload.size());
      ++polled;
    }
  }
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(polled, 37u);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(fab.transmitted, 37u);
  EXPECT_EQ(dst.packets_received(MuPacketType::MemoryFifo), 37u);
  EXPECT_EQ(src.obs().pvars.get(obs::Pvar::PacketsInjected), 37u);
}

TEST(MessagingUnit, DirectPutBurstDecrementsCounterOnce) {
  // 16 slices are one burst: the counter sees a single decrement by the
  // whole 8 KB, and the wakeup unit a single store. 20 slices are two.
  for (const std::size_t packets : {std::size_t{16}, std::size_t{20}}) {
    TestFabric fab;
    WakeupUnit wu;
    MessagingUnit& src = fab.make_mu(0);
    fab.make_mu(1, &wu);
    const std::size_t bytes = packets * kMaxPacketPayload;
    const auto payload = pattern(bytes);
    std::vector<std::byte> dest(bytes);
    MuReceptionCounter counter;
    counter.prime(static_cast<std::int64_t>(bytes));
    const auto h = wu.watch(&counter, sizeof(counter));
    const std::uint64_t armed = wu.arm(h);

    MuDescriptor d;
    d.type = MuPacketType::DirectPut;
    d.dest_node = 1;
    d.payload = payload.data();
    d.payload_bytes = payload.size();
    d.put_dest = dest.data();
    d.rec_counter = &counter;
    ASSERT_TRUE(src.inj_fifo(0).push(std::move(d)));
    EXPECT_EQ(src.advance_injection(0), 1);
    EXPECT_EQ(counter.bytes_remaining.load(), 0) << packets << " packets";
    EXPECT_EQ(wu.arm(h) - armed, (packets + kMuBurstPackets - 1) / kMuBurstPackets)
        << packets << " packets";
    EXPECT_EQ(dest, payload);
    EXPECT_EQ(fab.mus[1]->packets_received(MuPacketType::DirectPut), packets);
  }
}

}  // namespace
}  // namespace pamix::hw

// DesNetwork — the DES-timed transport backend behind PAMIX_NET=des.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hw/mu.h"
#include "runtime/des_network.h"
#include "runtime/machine.h"

namespace pamix {
namespace {

runtime::MachineOptions des_options(std::uint64_t seed = 0, double skew = 0.0) {
  runtime::MachineOptions mo;
  mo.backend = hw::NetBackendKind::Des;
  mo.sim_seed = seed;
  mo.link_skew_pct = skew;
  mo.des_auto_advance = false;
  return mo;
}

hw::MuPacket make_packet(int src, int dst, std::size_t bytes, std::uint64_t seq) {
  hw::MuPacket p;
  p.type = hw::MuPacketType::MemoryFifo;
  p.src_node = src;
  p.dest_node = dst;
  p.rec_fifo = 0;
  p.routing = hw::MuRouting::Deterministic;
  p.sw.msg_bytes = static_cast<std::uint32_t>(bytes);
  p.sw.msg_seq = seq;
  p.payload = core::Buf::heap(bytes);
  if (bytes > 0) std::memset(p.payload.data(), 0x33, bytes);
  return p;
}

/// Hand one packet to the backend as a burst of one.
bool send(hw::NetBackend& net, hw::MuPacket p) { return net.transmit(&p, 1) == 1; }

/// Drain one packet from a node's reception FIFO 0, if any.
bool pop_one(runtime::Machine& m, int node, hw::MuPacket& out) {
  return m.node(node).mu().rec_fifo(0).poll_batch(&out, 1) == 1;
}

TEST(DesNetwork, BackendSelectionAndIdentity) {
  runtime::Machine fn(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  EXPECT_STREQ(fn.backend().name(), "functional");
  EXPECT_FALSE(fn.backend().timed());
  EXPECT_EQ(fn.des_network(), nullptr);

  runtime::Machine des(hw::TorusGeometry({2, 1, 1, 1, 1}), 1, des_options());
  EXPECT_STREQ(des.backend().name(), "des");
  EXPECT_TRUE(des.backend().timed());
  ASSERT_NE(des.des_network(), nullptr);
  EXPECT_EQ(des.backend().now_us(), 0.0);
}

TEST(DesNetwork, TransmitDeliversAfterVirtualTime) {
  runtime::Machine m(hw::TorusGeometry({4, 1, 1, 1, 1}), 1, des_options());
  hw::NetBackend& net = m.backend();
  ASSERT_TRUE(send(net, make_packet(0, 2, 64, 1)));
  EXPECT_EQ(net.packets_delivered(), 0u);  // nothing moves until time does
  EXPECT_EQ(net.in_flight(), 1u);
  while (net.in_flight() > 0) ASSERT_TRUE(net.advance_time());
  EXPECT_EQ(net.packets_delivered(), 1u);
  EXPECT_EQ(net.payload_bytes_delivered(), 64u);
  EXPECT_GT(net.now_us(), 0.0);
  // 2 hops away: injection + serialization + 2 hops + reception.
  const sim::BgqCostModel cm;
  const double expect = cm.mu_injection_us + cm.packet_serialization_us(64) +
                        2 * cm.hop_latency_us + cm.mu_reception_us;
  EXPECT_NEAR(net.now_us(), expect, 1e-9);
}

TEST(DesNetwork, InOrderDeliveryOnDeterministicRoutes) {
  runtime::Machine m(hw::TorusGeometry({4, 2, 1, 1, 1}), 1, des_options());
  hw::NetBackend& net = m.backend();
  for (std::uint32_t i = 0; i < 32; ++i) ASSERT_TRUE(send(net, make_packet(0, 5, 128, i)));
  while (net.in_flight() > 0) net.advance_time();
  std::uint64_t expect = 0;
  hw::MuPacket pkt;
  while (pop_one(m, 5, pkt)) {
    EXPECT_EQ(pkt.sw.msg_seq, expect);
    ++expect;
  }
  EXPECT_EQ(expect, 32u);
}

TEST(DesNetwork, ContentionStretchesTime) {
  // Many senders into one destination vs the same traffic spread out:
  // the incast must take longer and record link occupancy.
  const hw::TorusGeometry g({4, 4, 1, 1, 1});
  double incast_us = 0.0, spread_us = 0.0;
  {
    runtime::Machine m(g, 1, des_options());
    for (int s = 1; s < 16; ++s) {
      ASSERT_TRUE(send(m.backend(), make_packet(s, 0, 512, 0)));
    }
    while (m.backend().in_flight() > 0) m.backend().advance_time();
    incast_us = m.backend().now_us();
    EXPECT_GT(m.backend().max_link_occupancy(), 1u);
  }
  {
    runtime::Machine m(g, 1, des_options());
    for (int s = 1; s < 16; ++s) {
      ASSERT_TRUE(send(m.backend(), make_packet(s, (s + 8) % 16, 512, 0)));
    }
    while (m.backend().in_flight() > 0) m.backend().advance_time();
    spread_us = m.backend().now_us();
  }
  EXPECT_GT(incast_us, spread_us);
}

TEST(DesNetwork, DepositBitDeliversAlongLine) {
  runtime::Machine m(hw::TorusGeometry({6, 1, 1, 1, 1}), 1, des_options());
  hw::MuPacket p = make_packet(0, 2, 32, 0);  // 0 -> 2 routes A+ through 1
  p.deposit = true;
  ASSERT_TRUE(send(m.backend(), std::move(p)));
  while (m.backend().in_flight() > 0) m.backend().advance_time();
  // Every node the route passes through got a copy.
  EXPECT_EQ(m.backend().packets_delivered(), 2u);
  for (int n = 1; n <= 2; ++n) {
    hw::MuPacket got;
    EXPECT_TRUE(pop_one(m, n, got)) << "node " << n;
  }
}

TEST(DesNetwork, LinkSkewSlowsDelivery) {
  const hw::TorusGeometry g({4, 4, 2, 1, 1});
  auto one_way = [&](double skew) {
    runtime::Machine m(g, 1, des_options(/*seed=*/7, skew));
    EXPECT_TRUE(send(m.backend(), make_packet(0, 21, 256, 0)));
    while (m.backend().in_flight() > 0) m.backend().advance_time();
    return m.backend().now_us();
  };
  EXPECT_GT(one_way(60.0), one_way(0.0));
}

TEST(DesNetwork, RetryWhenReceptionFifoFull) {
  runtime::MachineOptions mo = des_options();
  mo.rec_fifo_capacity = 4;
  runtime::Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 1, mo);
  for (std::uint32_t i = 0; i < 12; ++i) ASSERT_TRUE(send(m.backend(), make_packet(0, 1, 32, i)));
  // Let deliveries run with nobody draining: the FIFO fills and the
  // backend must retry the overflow instead of dropping it.
  for (int i = 0; i < 50; ++i) m.backend().advance_time();
  EXPECT_GT(m.des_network()->obs().pvars.get(obs::Pvar::SimDeliverRetries), 0u);
  std::uint64_t popped = 0;
  hw::MuPacket pkt;
  for (int rounds = 0; rounds < 10000 && popped < 12; ++rounds) {
    m.backend().advance_time();
    while (pop_one(m, 1, pkt)) {
      EXPECT_EQ(pkt.sw.msg_seq, popped);  // retries must not reorder
      ++popped;
    }
  }
  EXPECT_EQ(popped, 12u);
}

TEST(DesNetwork, PvarsAccumulate) {
  runtime::Machine m(hw::TorusGeometry({2, 2, 1, 1, 1}), 1, des_options(/*seed=*/3));
  for (std::uint32_t i = 0; i < 8; ++i) ASSERT_TRUE(send(m.backend(), make_packet(0, 3, 200, i)));
  while (m.backend().in_flight() > 0) m.backend().advance_time();
  const obs::PvarSnapshot pv = m.des_network()->obs().pvars.snapshot();
  EXPECT_GT(pv[obs::Pvar::SimEvents], 0u);
  EXPECT_EQ(pv[obs::Pvar::SimPackets], 8u);
  EXPECT_GT(pv[obs::Pvar::SimVirtualNs], 0u);
  EXPECT_GE(pv[obs::Pvar::SimLinkMaxOccupancy], 1u);
}

}  // namespace
}  // namespace pamix

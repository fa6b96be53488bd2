#include "runtime/machine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

namespace pamix::runtime {
namespace {

TEST(Machine, TaskMappingIsAbcdeT) {
  Machine m(hw::TorusGeometry({2, 2, 1, 1, 1}), /*ppn=*/4);
  EXPECT_EQ(m.node_count(), 4);
  EXPECT_EQ(m.task_count(), 16);
  EXPECT_EQ(m.node_of_task(0), 0);
  EXPECT_EQ(m.node_of_task(3), 0);
  EXPECT_EQ(m.node_of_task(4), 1);
  EXPECT_EQ(m.local_index_of_task(6), 2);
  EXPECT_EQ(m.task_of(3, 1), 13);
}

TEST(Machine, WorldClassrouteProgrammedAtBoot) {
  Machine m(hw::TorusGeometry({2, 2, 2, 1, 1}), 1);
  ASSERT_TRUE(m.classroute_programmed(0));
  EXPECT_EQ(m.classroute(0).participant_count(), 8);
  EXPECT_EQ(m.collective_engine(0).participants(), 8);
  EXPECT_EQ(m.gi_network().barrier(0)->participants(), 8);
}

TEST(Machine, ProgramAndClearClassrouteSlots) {
  Machine m(hw::TorusGeometry({2, 2, 1, 1, 1}), 1);
  hw::TorusRectangle line;
  line.lo = {0, 0, 0, 0, 0};
  line.hi = {1, 0, 0, 0, 0};
  m.program_classroute(5, line);
  EXPECT_TRUE(m.classroute_programmed(5));
  EXPECT_EQ(m.classroute(5).participant_count(), 2);
  m.clear_classroute(5);
  EXPECT_FALSE(m.classroute_programmed(5));
}

TEST(Machine, RunSpmdRunsEveryTaskOnItsOwnThread) {
  Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 3);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(m.task_count()));
  m.run_spmd([&](int task) { hits[static_cast<std::size_t>(task)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Machine, RunSpmdPropagatesExceptions) {
  Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  EXPECT_THROW(
      m.run_spmd([](int task) {
        if (task == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(FunctionalNetwork, TransmitsBetweenNodesAndCounts) {
  Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  hw::MuDescriptor d;
  d.type = hw::MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 0;
  std::vector<std::byte> payload(600, std::byte{0x5A});
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  ASSERT_TRUE(m.node(0).mu().inj_fifo(0).push(std::move(d)));
  m.node(0).mu().advance_injection({0});
  EXPECT_EQ(m.network().packets_delivered(), 2u);  // 512 + 88
  EXPECT_EQ(m.network().payload_bytes_delivered(), 600u);
  hw::MuPacket pkt;
  EXPECT_TRUE(m.node(1).mu().rec_fifo(0).poll(pkt));
}

TEST(FunctionalNetwork, DepositBitDeliversAlongTheLine) {
  // The hardware line broadcast: one memory-FIFO packet sent down an axis
  // with the deposit bit lands at every node it passes through.
  Machine m(hw::TorusGeometry({4, 1, 1, 1, 1}), 1);
  hw::MuDescriptor d;
  d.type = hw::MuPacketType::MemoryFifo;
  d.deposit = true;
  d.dest_node = 2;  // A+ line through nodes 1 and 2 (3 would wrap A-)
  d.rec_fifo = 0;
  std::vector<std::byte> payload(64, std::byte{0x7E});
  d.payload = payload.data();
  d.payload_bytes = payload.size();
  ASSERT_TRUE(m.node(0).mu().inj_fifo(0).push(std::move(d)));
  m.node(0).mu().advance_injection({0});
  for (int node : {1, 2}) {
    hw::MuPacket pkt;
    ASSERT_TRUE(m.node(node).mu().rec_fifo(0).poll(pkt)) << "node " << node;
    EXPECT_EQ(pkt.payload.size(), 64u);
    EXPECT_EQ(pkt.payload[0], std::byte{0x7E});
    EXPECT_TRUE(pkt.deposit);
  }
  // The source itself does not receive its own deposit.
  hw::MuPacket none;
  EXPECT_FALSE(m.node(0).mu().rec_fifo(0).poll(none));
}

TEST(FunctionalNetwork, BurstCountersMatchPerPacketTotals) {
  // A 4-slot reception FIFO makes every 16-packet burst partial. The
  // delivery counters, the receiver's packet count and the sender's
  // mu.packets_injected must still equal the per-packet totals exactly:
  // rejected packets are neither counted nor lost.
  MachineOptions mo;
  mo.rec_fifo_capacity = 4;
  Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 1, mo);
  const std::size_t bytes = 22 * hw::kMaxPacketPayload + 40;  // 23 packets
  std::vector<std::byte> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i) payload[i] = static_cast<std::byte>(i * 13 + 1);
  hw::MuDescriptor d;
  d.type = hw::MuPacketType::MemoryFifo;
  d.dest_node = 1;
  d.rec_fifo = 0;
  d.payload = payload.data();
  d.payload_bytes = bytes;
  ASSERT_TRUE(m.node(0).mu().inj_fifo(0).push(std::move(d)));

  std::vector<std::byte> got;
  int injected = 0;
  for (int pass = 0; pass < 100 && injected == 0; ++pass) {
    injected = m.node(0).mu().advance_injection(0);
    EXPECT_EQ(m.network().packets_delivered(),
              m.node(1).mu().packets_received(hw::MuPacketType::MemoryFifo));
    EXPECT_EQ(m.network().packets_delivered(),
              m.node(0).mu().obs().pvars.get(obs::Pvar::PacketsInjected));
    hw::MuPacket pkt;
    while (m.node(1).mu().rec_fifo(0).poll(pkt)) {
      got.insert(got.end(), pkt.payload.data(), pkt.payload.data() + pkt.payload.size());
    }
    EXPECT_EQ(m.network().payload_bytes_delivered(), got.size());
  }
  EXPECT_EQ(injected, 1);
  EXPECT_EQ(m.network().packets_delivered(), 23u);
  EXPECT_EQ(m.network().payload_bytes_delivered(), bytes);
  EXPECT_EQ(m.node(0).mu().obs().pvars.get(obs::Pvar::PacketsInjected), 23u);
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace pamix::runtime

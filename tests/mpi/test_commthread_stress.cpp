// Commthread-vs-application race stress (runs under TSan in the
// sanitize-thread CI leg; the suite name matches its *Stress* filter).
//
// The adaptive progress engine has three thread interactions worth
// hammering with the race detector:
//   * blocking callers steal progress on a context a commthread also
//     sweeps (trylock + advance from both sides, steal-window mute/unmute
//     around the app side),
//   * the isend fast path injects inline under a trylock while the
//     commthread drains the same context's handoff queue,
//   * the doorbell/asleep handshake between ring_doorbell and the
//     worker's arm-for-sleep sequence.
// Counts are small: TSan serializes heavily and the value is coverage of
// the interleavings, not throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "mpi/mpi.h"
#include "runtime/machine.h"

namespace pamix::mpi {
namespace {

MpiConfig commthread_cfg() {
  MpiConfig cfg;
  cfg.commthreads = MpiConfig::Commthreads::ForceOn;
  cfg.commthread_count = 2;
  return cfg;
}

TEST(CommthreadStress, BlockingPingPongStealsAgainstWorkers) {
  // Latency-shaped: every iteration opens a steal window on the hashed
  // context while the commthreads hold watches on it.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  MpiWorld world(machine, commthread_cfg());
  machine.run_spmd([&](int task) {
    Mpi& mp = world.at(task);
    mp.init(ThreadLevel::Multiple);
    const Comm w = mp.world();
    const int me = mp.rank(w);
    const int peer = 1 - me;
    char dummy = 0;
    for (int i = 0; i < 200; ++i) {
      if (me == 0) {
        mp.send(&dummy, 0, peer, 0, w);
        mp.recv(&dummy, 0, peer, 0, w);
      } else {
        mp.recv(&dummy, 0, peer, 0, w);
        mp.send(&dummy, 0, peer, 0, w);
      }
    }
    mp.finalize();
  });
}

TEST(CommthreadStress, BurstWaitallRacesInlineSendsAndHandoffs) {
  // Rate-shaped: isend bursts take the inline-under-trylock arm (or hand
  // off on contention), then waitall's full-sweep steal window races the
  // workers' drains on every context.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  MpiWorld world(machine, commthread_cfg());
  machine.run_spmd([&](int task) {
    Mpi& mp = world.at(task);
    mp.init(ThreadLevel::Multiple);
    const Comm w = mp.world();
    constexpr int kMsgs = 128;
    std::vector<int> recv_buf(kMsgs);
    std::vector<int> send_buf(kMsgs, mp.rank(w));
    for (int round = 0; round < 4; ++round) {
      std::vector<Request> reqs;
      reqs.reserve(2 * kMsgs);
      const int peer = 1 - mp.rank(w);
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(mp.irecv(&recv_buf[static_cast<std::size_t>(i)], sizeof(int), peer,
                                i, w));
      }
      mp.barrier(w);
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(mp.isend(&send_buf[static_cast<std::size_t>(i)], sizeof(int), peer,
                                i, w));
      }
      mp.waitall(reqs);
      for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(recv_buf[static_cast<std::size_t>(i)], peer);
      mp.barrier(w);
    }
    mp.finalize();
  });
}

TEST(CommthreadStress, RendezvousWaitallRacesIdleSweep) {
  // Rendezvous-sized messages: waitall's advance pulls each one
  // (RdzvProtocol::start_pull registers its reception counter with the
  // counter device) while the commthreads' sweeps ask every device of the
  // same context whether it is idle. The idle predicates must read only
  // state the advancing thread publishes atomically.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  MpiWorld world(machine, commthread_cfg());
  machine.run_spmd([&](int task) {
    Mpi& mp = world.at(task);
    mp.init(ThreadLevel::Multiple);
    const Comm w = mp.world();
    const int me = mp.rank(w);
    const int peer = 1 - me;
    constexpr int kMsgs = 8;
    constexpr std::size_t kBytes = 3 * 4096;  // above the rendezvous threshold
    std::vector<std::vector<std::uint8_t>> recv_buf(kMsgs, std::vector<std::uint8_t>(kBytes));
    std::vector<std::vector<std::uint8_t>> send_buf(kMsgs, std::vector<std::uint8_t>(kBytes));
    for (int round = 0; round < 6; ++round) {
      std::vector<Request> reqs;
      reqs.reserve(2 * kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        auto& out = send_buf[static_cast<std::size_t>(i)];
        std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(me * 64 + round * 8 + i));
        reqs.push_back(mp.irecv(recv_buf[static_cast<std::size_t>(i)].data(), kBytes, peer,
                                i, w));
        reqs.push_back(mp.isend(out.data(), kBytes, peer, i, w));
      }
      mp.waitall(reqs);
      for (int i = 0; i < kMsgs; ++i) {
        const auto& in = recv_buf[static_cast<std::size_t>(i)];
        const auto want = static_cast<std::uint8_t>(peer * 64 + round * 8 + i);
        EXPECT_EQ(in.front(), want);
        EXPECT_EQ(in.back(), want);
      }
      mp.barrier(w);
    }
    mp.finalize();
  });
}

TEST(CommthreadStress, MixedBlockingAndBurstTraffic) {
  // Alternating shapes from both ranks at once: targeted waits (single-
  // context steal) interleaved with bursts, so mute/unmute nesting, the
  // doorbell handshake, and wait_on_context's trylock loop all overlap.
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  MpiWorld world(machine, commthread_cfg());
  machine.run_spmd([&](int task) {
    Mpi& mp = world.at(task);
    mp.init(ThreadLevel::Multiple);
    const Comm w = mp.world();
    const int me = mp.rank(w);
    const int peer = 1 - me;
    for (int round = 0; round < 8; ++round) {
      constexpr int kBurst = 32;
      std::vector<int> recv_buf(kBurst);
      std::vector<int> send_buf(kBurst, me);
      std::vector<Request> reqs;
      reqs.reserve(2 * kBurst);
      for (int i = 0; i < kBurst; ++i) {
        reqs.push_back(mp.irecv(&recv_buf[static_cast<std::size_t>(i)], sizeof(int), peer,
                                i, w));
        reqs.push_back(mp.isend(&send_buf[static_cast<std::size_t>(i)], sizeof(int), peer,
                                i, w));
      }
      // Wait in reverse completion order: each wait() targets the hashed
      // context of that one request while the rest stay in flight.
      while (!reqs.empty()) {
        mp.wait(reqs.back());
        reqs.pop_back();
      }
      for (int i = 0; i < kBurst; ++i) EXPECT_EQ(recv_buf[static_cast<std::size_t>(i)], peer);
      mp.barrier(w);
    }
    mp.finalize();
  });
}

}  // namespace
}  // namespace pamix::mpi

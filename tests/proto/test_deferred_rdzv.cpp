// Deferred rendezvous, truncation, and injection backpressure — the
// corner paths of the proto/ layer that the happy-path pt2pt tests skip.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/client.h"
#include "core/context.h"
#include "obs/pvar.h"
#include "proto/protocol.h"
#include "runtime/machine.h"

namespace pamix::pami {
namespace {

std::vector<std::byte> pattern(std::size_t n, int salt = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 13 + salt);
  return v;
}

/// Two-node fixture (inter-node MU path) with a small eager limit so
/// modest payloads go rendezvous.
class DeferredRdzv : public ::testing::Test {
 protected:
  DeferredRdzv() : machine_(hw::TorusGeometry({2, 1, 1, 1, 1}), 1), world_(machine_, make_config()) {}

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

  runtime::Machine machine_;
  ClientWorld world_;
};

/// An RTS whose handler defers: no data moves until the upper layer calls
/// complete_deferred_rdzv — the MPI unexpected-message path.
TEST_F(DeferredRdzv, MuDeferredPullCompletesAfterMatch) {
  const auto payload = pattern(8000);  // > eager_limit → rendezvous
  std::uint64_t handle = 0;
  std::size_t announced = 0;
  ctx(1).set_dispatch(4, [&](Context&, const void*, std::size_t, const void* pipe, std::size_t,
                             std::size_t total, Endpoint, RecvDescriptor* recv) {
    ASSERT_EQ(pipe, nullptr);
    ASSERT_NE(recv, nullptr);
    announced = total;
    recv->defer = true;
    handle = recv->defer_handle;
  });

  SendParams p;
  p.dispatch = 4;
  p.dest = Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = payload.size();
  bool remote_done = false;
  p.on_remote_done = [&] { remote_done = true; };
  ASSERT_EQ(ctx(0).send(p), Result::Success);

  for (int i = 0; i < 100 && handle == 0; ++i) advance_both();
  ASSERT_NE(handle, 0u);
  EXPECT_EQ(announced, payload.size());
  // Parked RTS: pending state on the receiver, but nothing pollable — a
  // commthread may sleep; only a match can make progress.
  EXPECT_TRUE(ctx(1).has_pending_state());
  EXPECT_FALSE(remote_done);

  std::vector<std::byte> recv_buf(payload.size());
  bool complete = false;
  ctx(1).complete_deferred_rdzv(handle, recv_buf.data(), recv_buf.size(),
                                [&] { complete = true; });
  for (int i = 0; i < 200 && !(complete && remote_done); ++i) advance_both();
  ASSERT_TRUE(complete);
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(recv_buf, payload);
  EXPECT_FALSE(ctx(0).has_pending_state());
  EXPECT_FALSE(ctx(1).has_pending_state());
}

/// Deferred pull with a window smaller than the message: only accept_bytes
/// land, and the sender is still fully acknowledged.
TEST_F(DeferredRdzv, DeferredPullTruncatesToReceiverWindow) {
  const auto payload = pattern(6000, 5);
  std::uint64_t handle = 0;
  ctx(1).set_dispatch(4, [&](Context&, const void*, std::size_t, const void*, std::size_t,
                             std::size_t, Endpoint, RecvDescriptor* recv) {
    recv->defer = true;
    handle = recv->defer_handle;
  });

  SendParams p;
  p.dispatch = 4;
  p.dest = Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = payload.size();
  bool remote_done = false;
  p.on_remote_done = [&] { remote_done = true; };
  ASSERT_EQ(ctx(0).send(p), Result::Success);
  for (int i = 0; i < 100 && handle == 0; ++i) advance_both();
  ASSERT_NE(handle, 0u);

  const std::size_t kAccept = 100;
  std::vector<std::byte> recv_buf(kAccept, std::byte{0});
  bool complete = false;
  ctx(1).complete_deferred_rdzv(handle, recv_buf.data(), kAccept, [&] { complete = true; });
  for (int i = 0; i < 200 && !(complete && remote_done); ++i) advance_both();
  ASSERT_TRUE(complete);
  EXPECT_TRUE(remote_done);
  EXPECT_TRUE(std::memcmp(recv_buf.data(), payload.data(), kAccept) == 0);
  EXPECT_FALSE(ctx(1).has_pending_state());
}

/// Multi-packet eager arrival where the handler accepts fewer bytes than
/// the message carries: the continuation packets beyond the window are
/// dropped on the floor, completion still fires.
TEST_F(DeferredRdzv, EagerReassemblyTruncates) {
  ClientConfig c;
  c.contexts_per_task = 1;
  c.eager_limit = 4096;  // keep a ~3 KB message eager (multi-packet)
  runtime::Machine m(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  ClientWorld w(m, c);
  Context& tx = w.client(0).context(0);
  Context& rx = w.client(1).context(0);

  const auto payload = pattern(3000, 9);
  const std::size_t kAccept = 100;
  std::vector<std::byte> recv_buf(kAccept, std::byte{0});
  bool complete = false;
  rx.set_dispatch(2, [&](Context&, const void*, std::size_t, const void* pipe, std::size_t,
                         std::size_t total, Endpoint, RecvDescriptor* recv) {
    ASSERT_EQ(pipe, nullptr);  // > one packet
    ASSERT_EQ(total, payload.size());
    recv->buffer = recv_buf.data();
    recv->bytes = kAccept;
    recv->on_complete = [&] { complete = true; };
  });

  SendParams p;
  p.dispatch = 2;
  p.dest = Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = payload.size();
  ASSERT_EQ(tx.send(p), Result::Success);
  for (int i = 0; i < 200 && !complete; ++i) {
    tx.advance();
    rx.advance();
  }
  ASSERT_TRUE(complete);
  EXPECT_TRUE(std::memcmp(recv_buf.data(), payload.data(), kAccept) == 0);
  EXPECT_FALSE(rx.has_pending_state());  // reassembly state retired
}

/// Intra-node zero-copy arrival deferred by the handler, then completed:
/// the copy happens straight out of the sender's buffer at match time.
TEST(DeferredShm, ZeroCopyDeferredCompletesAfterMatch) {
  runtime::Machine machine(hw::TorusGeometry({1, 1, 1, 1, 1}), 2);  // 2 procs, 1 node
  ClientConfig c;
  c.contexts_per_task = 1;
  c.shm_eager_limit = 256;
  ClientWorld world(machine, c);
  Context& tx = world.client(0).context(0);
  Context& rx = world.client(1).context(0);

  const auto payload = pattern(4096, 3);
  std::uint64_t handle = 0;
  rx.set_dispatch(6, [&](Context&, const void*, std::size_t, const void* pipe, std::size_t,
                         std::size_t total, Endpoint, RecvDescriptor* recv) {
    ASSERT_EQ(pipe, nullptr);  // zero-copy announcement
    ASSERT_EQ(total, payload.size());
    ASSERT_NE(recv, nullptr);
    recv->defer = true;
    handle = recv->defer_handle;
  });

  SendParams p;
  p.dispatch = 6;
  p.dest = Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = payload.size();
  bool local_done = false;
  p.on_local_done = [&] { local_done = true; };
  ASSERT_EQ(tx.send(p), Result::Success);
  // Zero-copy: the source buffer stays busy until the receiver drains it.
  EXPECT_FALSE(local_done);

  for (int i = 0; i < 100 && handle == 0; ++i) rx.advance();
  ASSERT_NE(handle, 0u);
  EXPECT_TRUE(rx.has_pending_state());

  std::vector<std::byte> recv_buf(payload.size());
  bool complete = false;
  rx.complete_deferred_rdzv(handle, recv_buf.data(), recv_buf.size(), [&] { complete = true; });
  ASSERT_TRUE(complete);
  EXPECT_EQ(recv_buf, payload);
  for (int i = 0; i < 100 && !local_done; ++i) tx.advance();
  EXPECT_TRUE(local_done);
  EXPECT_FALSE(tx.has_pending_state());
  EXPECT_FALSE(rx.has_pending_state());
}

/// Injection backpressure on the RTS itself: tiny FIFOs saturate, send()
/// bounces with Eagain and rolls its state back (no RTS counted, no send
/// state leaked), and the same send succeeds after draining.
TEST(RdzvBackpressure, RtsEagainRollsBackAndRetries) {
  runtime::MachineOptions opt;
  opt.inj_fifo_capacity = 1;
  opt.rec_fifo_capacity = 1;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1, opt);
  ClientConfig c;
  c.contexts_per_task = 1;
  c.eager_limit = 64;
  ClientWorld world(machine, c);
  Context& tx = world.client(0).context(0);
  Context& rx = world.client(1).context(0);

  const auto payload = pattern(1024, 7);
  int delivered = 0;
  std::vector<std::vector<std::byte>> bufs;
  rx.set_dispatch(9, [&](Context&, const void*, std::size_t, const void*, std::size_t,
                         std::size_t total, Endpoint, RecvDescriptor* recv) {
    bufs.emplace_back(total);
    recv->buffer = bufs.back().data();
    recv->bytes = total;
    recv->on_complete = [&] { ++delivered; };
  });

  SendParams p;
  p.dispatch = 9;
  p.dest = Endpoint{1, 0};
  p.data = payload.data();
  p.data_bytes = payload.size();

  // Saturate: without the receiver advancing, at most a couple of RTS
  // packets fit in flight before send() must bounce.
  const obs::PvarSnapshot rts_before =
      tx.proto_obs(proto::ProtocolKind::Rdzv).pvars.snapshot();
  int accepted = 0;
  Result r = Result::Success;
  for (int i = 0; i < 64; ++i) {
    r = tx.send(p);
    if (r != Result::Success) break;
    ++accepted;
  }
  ASSERT_EQ(r, Result::Eagain);
  const obs::PvarSnapshot rts_mid =
      tx.proto_obs(proto::ProtocolKind::Rdzv).pvars.snapshot() - rts_before;
  // Rollback: only the accepted sends counted an RTS; the bounce left no
  // trace beyond the context-level Eagain tick.
  EXPECT_EQ(rts_mid[obs::Pvar::RdzvRtsSent], static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(tx.obs().pvars.get(obs::Pvar::SendEagain), 1u);

  // Drain and retry the bounced send: it must go through and deliver.
  for (int i = 0; i < 500 && delivered < accepted; ++i) {
    tx.advance();
    rx.advance();
  }
  ASSERT_EQ(delivered, accepted);
  ASSERT_EQ(tx.send(p), Result::Success);
  for (int i = 0; i < 500 && delivered < accepted + 1; ++i) {
    tx.advance();
    rx.advance();
  }
  ASSERT_EQ(delivered, accepted + 1);
  for (const auto& b : bufs) EXPECT_EQ(b, payload);
  // The receiver completed, but the origin's send states retire only when
  // the DONE packets crawl back through the tiny FIFOs.
  for (int i = 0; i < 500 && (tx.has_pending_state() || rx.has_pending_state()); ++i) {
    tx.advance();
    rx.advance();
  }
  EXPECT_FALSE(tx.has_pending_state());
  EXPECT_FALSE(rx.has_pending_state());
}

/// An RTS is one packet, so a header that cannot share it with RtsInfo is
/// refused in every build: Invalid, no RTS counted, no send state held,
/// and the context keeps working for the next sends.
TEST(RdzvOversizeHeader, RefusedWithoutConsumingState) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  ClientConfig c;
  c.contexts_per_task = 1;
  c.eager_limit = 64;
  ClientWorld world(machine, c);
  Context& tx = world.client(0).context(0);
  Context& rx = world.client(1).context(0);

  const auto payload = pattern(1024, 3);
  int delivered = 0;
  std::vector<std::byte> buf(payload.size());
  rx.set_dispatch(9, [&](Context&, const void*, std::size_t, const void*, std::size_t,
                         std::size_t total, Endpoint, RecvDescriptor* recv) {
    recv->buffer = buf.data();
    recv->bytes = total;
    recv->on_complete = [&] { ++delivered; };
  });

  const std::vector<std::byte> header(hw::kMaxPacketPayload, std::byte{0x11});
  SendParams p;
  p.dispatch = 9;
  p.dest = Endpoint{1, 0};
  p.header = header.data();
  p.header_bytes = header.size();
  p.data = payload.data();
  p.data_bytes = payload.size();
  bool remote_done = false;
  p.on_remote_done = [&] { remote_done = true; };
  ASSERT_EQ(tx.send(p), Result::Invalid);
  EXPECT_EQ(tx.proto_obs(proto::ProtocolKind::Rdzv).pvars.get(obs::Pvar::RdzvRtsSent), 0u);
  EXPECT_FALSE(tx.has_pending_state());

  // A header that fits goes through, and its send state retires.
  p.header_bytes = 16;
  ASSERT_EQ(tx.send(p), Result::Success);
  for (int i = 0; i < 500 && !remote_done; ++i) {
    tx.advance();
    rx.advance();
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(buf, payload);
  EXPECT_FALSE(tx.has_pending_state());
}

}  // namespace
}  // namespace pamix::pami

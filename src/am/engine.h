// am::Engine — per-context active-message RPC engine (credit flow
// control, small-message aggregation, correlation-ID request/response).
//
// The engine layers PAMI-style active messages with server-grade flow
// control on top of one Context, using only the existing machinery:
// sends go through `Context::send` (so eager/rendezvous/shm selection,
// ordering and reassembly are untouched), staging comes from the
// context's BufferPool (zero steady-state allocations), callables are
// InlineFn, progress is a pollable proto::Device registered behind the
// built-in five.
//
//   * Credits. Each peer endpoint starts with `credits` receive credits.
//     Every non-reply message consumes one; at zero the send parks in a
//     per-peer FIFO instead of hitting the wire, so an incast degrades
//     into bounded queueing rather than unbounded unexpected-message
//     state. The receiver grants the credit back at dispatch for inline
//     handlers (so a reply piggybacks the credit for the message it
//     answers) and only after the work item runs for ExecMode::Deferred
//     (so deferral backpressure reaches the sender); grants return
//     piggybacked on every outgoing AM header or, when `owed` reaches
//     credits/2, via a batched credit-return control message.
//     Replies are credit-exempt (bounded by the caller's outstanding
//     calls) and control messages bypass the parked FIFO — both rules
//     exist so flow control can never deadlock its own credit returns.
//
//   * Aggregation. Messages whose framed record fits the staging buffer
//     (default: one 512-byte MU packet) coalesce per peer into a pooled
//     `Buf` and flush as one Agg packet on full, on timeout
//     (PAMIX_AM_FLUSH_US, checked by the device poll), or on flush().
//     A larger or ordering-sensitive (direct) send flushes the buffer
//     first, so per-peer program order is preserved observably: records
//     dispatch at the receiver in exactly the order they were sent.
//
//   * RPC. `call` allocates a correlation ID from a recycled slot table
//     and delivers the reply — matched by ID, generation-checked against
//     stale completions — to an InlineFn callback or a `Future` that
//     copies the payload into a pooled buffer.
//
// Threading: every Engine method must run on the thread advancing the
// owning context (the same single-advancer discipline as the rest of the
// stack); handlers run on that thread too. One Engine per context — it
// owns three reserved dispatch IDs near the top of the table.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "am/handler_table.h"
#include "am/wire.h"
#include "core/buffer_pool.h"
#include "core/context.h"
#include "core/types.h"
#include "obs/pvar.h"
#include "proto/device.h"

namespace pamix::am {

class Engine;

/// The AM layer's pollable progress device: drains credit-stalled peer
/// FIFOs, performs timeout flushes of non-empty aggregation buffers, and
/// retries bounced control messages. Poll-only — none of those are
/// completed by a wakeup-address store, so idle() is false while any are
/// pending, keeping commthreads out of the wakeup sleep.
class AmDevice final : public proto::Device {
 public:
  explicit AmDevice(Engine& engine) : engine_(engine) {}

  const char* name() const override { return "am"; }
  std::size_t poll() override;
  bool idle() const override;
  bool has_pending_state() const override;

 private:
  Engine& engine_;
};

/// Reply callback: status (Error for a peer-reported failure such as a
/// version mismatch), then the reply payload. The payload pointer is
/// valid only for the duration of the callback.
using ReplyFn = core::InlineFn<void(pami::Result, const void*, std::size_t),
                               core::kSmallCallableBytes>;

/// Poll-style reply handle for `Engine::call`. The future must outlive
/// the call; the reply payload is copied into a pooled buffer, so it
/// stays readable until the future is reused or destroyed.
class Future {
 public:
  bool ready() const { return ready_; }
  pami::Result status() const { return status_; }
  const void* data() const { return buf_.data(); }
  std::size_t bytes() const { return buf_.size(); }

 private:
  friend class Engine;
  bool ready_ = false;
  pami::Result status_ = pami::Result::Success;
  core::Buf buf_;
};

class Engine {
 public:
  struct Options {
    /// Receive credits granted to each peer (PAMIX_AM_CREDITS).
    std::uint32_t credits = 64;
    /// Aggregation staging-buffer size in bytes, header included; 0
    /// disables aggregation (PAMIX_AM_AGG_BYTES). Clamped to the largest
    /// pooled buffer class.
    std::size_t agg_bytes = 512;
    /// Max microseconds a non-empty aggregation buffer may wait before
    /// the device poll flushes it (PAMIX_AM_FLUSH_US; 0 = flush every
    /// poll pass).
    std::uint32_t flush_us = 50;
    /// First of the three reserved context dispatch IDs.
    pami::DispatchId dispatch_base = kDefaultDispatchBase;
  };

  /// Options with every PAMIX_AM_* environment override applied.
  static Options options_from_env();

  explicit Engine(pami::Context& ctx, Options opts = options_from_env());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Registration ---------------------------------------------------------
  /// Register handler `id`; returns its registration version (stamped on
  /// outgoing records). Register symmetrically on every endpoint.
  std::uint16_t register_handler(std::uint16_t id, HandlerFn fn,
                                 ExecMode mode = ExecMode::Inline) {
    return handlers_.register_handler(id, std::move(fn), mode);
  }

  // --- Sends ----------------------------------------------------------------
  /// One-way active message. The source buffer is always reusable on
  /// return (small messages copy into the aggregation buffer; larger
  /// ones are staged by the eager protocol or copied to a pooled slab).
  /// Never blocks: at zero credits the message parks in the per-peer
  /// FIFO and drains as credits return.
  pami::Result send(pami::Endpoint dest, std::uint16_t handler, const void* data,
                    std::size_t bytes);

  /// RPC: like send, plus a correlation ID whose reply fires `on_reply`.
  /// Eagain when the outstanding-call table is exhausted (65535 calls).
  pami::Result call(pami::Endpoint dest, std::uint16_t handler, const void* data,
                    std::size_t bytes, ReplyFn on_reply);
  /// RPC with a poll-style future instead of a callback.
  pami::Result call(pami::Endpoint dest, std::uint16_t handler, const void* data,
                    std::size_t bytes, Future& future);

  /// Answer `msg` (which must carry a nonzero call_id). Credit-exempt.
  pami::Result reply(const AmMsg& msg, const void* data, std::size_t bytes,
                     bool error = false);

  /// Push buffered state toward the wire: drain what credits allow from
  /// parked FIFOs and flush non-empty aggregation buffers. Best effort —
  /// anything still blocked keeps draining from the device poll.
  void flush();
  void flush(pami::Endpoint dest);

  // --- Introspection --------------------------------------------------------
  std::uint32_t table_version() const { return handlers_.table_version(); }
  /// Highest handler-table version observed from `peer` (0 before first
  /// contact) — the receive side of the registration handshake.
  std::uint32_t peer_table_version(pami::Endpoint peer) const {
    return peers_[peer_index(peer)].table_version_seen;
  }
  std::uint32_t credits_available(pami::Endpoint peer) const {
    return peers_[peer_index(peer)].credits;
  }
  std::size_t outstanding_calls() const { return calls_live_.load(std::memory_order_relaxed); }
  /// Sends parked across all per-peer FIFOs (credit- or order-blocked).
  std::size_t parked_sends() const;
  /// Nothing buffered, parked, pending or outstanding.
  bool quiescent() const;

  pami::Context& context() { return ctx_; }
  const Options& options() const { return opts_; }
  obs::Domain& obs() { return obs_; }
  const obs::Domain& obs() const { return obs_; }

 private:
  friend class AmDevice;

  static constexpr std::uint32_t kNoSlab = 0xFFFFFFFFu;

  enum class EntryKind : std::uint8_t { Record, Direct };
  enum class FlushWhy : std::uint8_t { Full, Timeout, Explicit };

  /// One parked send. Payload (if any) lives in the slab; credits are
  /// consumed at drain time, so parking is side-effect-free.
  struct Parked {
    EntryKind kind = EntryKind::Record;
    std::uint16_t handler = 0;
    std::uint16_t version = 0;
    std::uint16_t flags = 0;
    std::uint32_t call_id = 0;
    std::uint32_t slab = kNoSlab;
    std::uint32_t bytes = 0;
  };

  struct Peer {
    std::uint32_t credits = 0;             // sends we may still issue
    std::uint32_t owed = 0;                // credits to return to this peer
    std::uint32_t table_version_seen = 0;  // handshake: max version observed
    bool hello_announced = false;          // our table_version reached them
    bool hello_due = false;                // inbound-first contact: announce
    bool in_parked_list = false;
    bool in_agg_list = false;
    bool in_ctl_list = false;
    core::Buf agg;                   // aggregation staging buffer
    std::size_t agg_used = 0;        // framed bytes staged
    std::uint16_t agg_records = 0;   // records staged
    std::uint64_t agg_oldest_ns = 0; // arrival of the oldest staged record
    std::vector<Parked> q;           // parked FIFO: q[q_head..)
    std::size_t q_head = 0;

    std::size_t q_live() const { return q.size() - q_head; }
  };

  struct CallSlot {
    ReplyFn fn;
    std::uint16_t gen = 0;
    bool in_use = false;
  };

  // Send path.
  pami::Result enqueue(pami::Endpoint dest, std::uint16_t handler,
                       std::uint32_t call_id, std::uint16_t flags, const void* data,
                       std::size_t bytes);
  void park(Peer& p, std::size_t idx, EntryKind kind, std::uint16_t handler,
            std::uint16_t version, std::uint32_t call_id, std::uint16_t flags,
            std::uint32_t slab, std::size_t bytes);
  std::size_t drain_peer(std::size_t idx);
  bool agg_ensure_room(Peer& p, std::size_t idx, std::size_t need);
  void agg_append(Peer& p, std::size_t idx, std::uint16_t handler,
                  std::uint16_t version, std::uint32_t call_id, std::uint16_t flags,
                  const void* data, std::size_t bytes);
  bool flush_peer(Peer& p, std::size_t idx, FlushWhy why);
  pami::Result send_direct(Peer& p, std::size_t idx, std::uint16_t handler,
                           std::uint16_t version, std::uint32_t call_id,
                           std::uint16_t flags, const void* data, std::size_t bytes,
                           std::uint32_t slab);
  bool send_ctl(Peer& p, std::size_t idx);
  bool needs_copy(pami::Endpoint dest, std::size_t bytes) const;

  // Receive path.
  void on_msg(const MsgHeader& h, pami::Endpoint origin, const void* data,
              std::size_t bytes);
  void on_agg(const AggHeader& h, pami::Endpoint origin, const void* data,
              std::size_t bytes);
  void on_ctl(const CtlHeader& h, pami::Endpoint origin);
  void deliver(std::size_t idx, pami::Endpoint origin, std::uint16_t handler,
               std::uint16_t version, std::uint32_t call_id, const void* data,
               std::size_t bytes);
  void grant_credit(std::size_t idx);
  void credit_arrival(Peer& p, std::uint32_t n);
  void note_peer_version(Peer& p, std::size_t idx, std::uint32_t table_version);

  // Calls.
  std::uint32_t alloc_call(ReplyFn fn);
  void free_call(std::uint32_t id);
  void complete_call(std::uint32_t id, pami::Result status, const void* data,
                     std::size_t bytes);

  // Credit piggybacking.
  std::uint16_t take_owed(Peer& p);
  void restore_owed(Peer& p, std::uint16_t n) { p.owed += n; }

  // Payload slab: index-stable pooled buffers for parked payloads,
  // in-flight staging, receive landing and deferred-dispatch copies.
  std::uint32_t slab_put(core::Buf b);
  core::Buf slab_take(std::uint32_t idx);
  void slab_release(std::uint32_t idx);

  // Device hooks.
  std::size_t poll();
  bool idle() const;
  bool has_pending_state() const;

  std::size_t peer_index(pami::Endpoint ep) const {
    return static_cast<std::size_t>(ep.task) * static_cast<std::size_t>(ctxs_per_task_) +
           static_cast<std::size_t>(ep.context);
  }
  pami::Endpoint peer_endpoint(std::size_t idx) const {
    return pami::Endpoint{
        static_cast<std::int32_t>(idx / static_cast<std::size_t>(ctxs_per_task_)),
        static_cast<std::int16_t>(idx % static_cast<std::size_t>(ctxs_per_task_))};
  }
  void list_add(std::vector<std::uint32_t>& list, bool& flag, std::size_t idx) {
    if (!flag) {
      flag = true;
      list.push_back(static_cast<std::uint32_t>(idx));
      publish_listed();
    }
  }
  /// Mirror the list sizes into `listed_` (advancing thread only).
  void publish_listed() {
    listed_.store(parked_list_.size() + agg_list_.size() + ctl_list_.size(),
                  std::memory_order_relaxed);
  }
  void add_calls_live(std::ptrdiff_t d) {
    calls_live_.store(calls_live_.load(std::memory_order_relaxed) + static_cast<std::size_t>(d),
                      std::memory_order_relaxed);
  }

  pami::Context& ctx_;
  Options opts_;
  std::size_t agg_capacity_ = 0;   // record bytes per agg packet (header excluded)
  std::uint64_t flush_ns_ = 0;
  std::uint32_t credit_batch_ = 1; // owed threshold for a batched ctl return
  int ctxs_per_task_ = 1;
  pami::DispatchId base_ = kDefaultDispatchBase;
  obs::Domain& obs_;  // registry-owned "<ctx>.am" domain; outlives the engine

  HandlerTable handlers_;
  std::vector<Peer> peers_;
  std::vector<std::uint32_t> parked_list_;  // peers with a non-empty FIFO
  std::vector<std::uint32_t> agg_list_;     // peers with a non-empty agg buffer
  std::vector<std::uint32_t> ctl_list_;     // peers owing a ctl send

  std::vector<core::Buf> slab_;
  std::vector<std::uint32_t> slab_free_;

  std::vector<CallSlot> calls_;
  std::vector<std::uint32_t> call_free_;

  // Written only by the advancing thread; atomic so that idle() and
  // has_pending_state() may read them from a commthread deciding whether
  // to sleep (a stale read is a false negative the wakeup re-check closes).
  std::atomic<std::size_t> listed_{0};  // entries across the three lists
  std::atomic<std::size_t> calls_live_{0};

  AmDevice dev_;
};

}  // namespace pamix::am

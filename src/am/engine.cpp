#include "am/engine.h"

#include <cassert>
#include <cstring>

#include "core/client.h"
#include "core/env.h"
#include "obs/clock.h"
#include "runtime/machine.h"

namespace pamix::am {

// ------------------------------------------------------------------ device --

std::size_t AmDevice::poll() { return engine_.poll(); }
bool AmDevice::idle() const { return engine_.idle(); }
bool AmDevice::has_pending_state() const { return engine_.has_pending_state(); }

// ----------------------------------------------------------------- options --

Engine::Options Engine::options_from_env() {
  Options o;
  o.credits = static_cast<std::uint32_t>(
      core::env_int_or("PAMIX_AM_CREDITS", static_cast<int>(o.credits), 1, 1 << 20));
  o.agg_bytes = core::env_size_or("PAMIX_AM_AGG_BYTES", o.agg_bytes);
  o.flush_us = static_cast<std::uint32_t>(
      core::env_int_or("PAMIX_AM_FLUSH_US", static_cast<int>(o.flush_us), 0, 10000000));
  return o;
}

// ----------------------------------------------------------- ctor / dtor ----

Engine::Engine(pami::Context& ctx, Options opts)
    : ctx_(ctx),
      opts_(opts),
      obs_(obs::Registry::instance().create(ctx.obs().name + ".am", ctx.obs().pid,
                                            ctx.obs().tid, /*want_ring=*/false)),
      dev_(*this) {
  // Aggregation buffers are pooled, so the staging size is bounded by the
  // largest class; a size too small to frame even one empty record
  // disables aggregation outright (everything goes direct).
  if (opts_.agg_bytes > core::kBufMaxPooledBytes) opts_.agg_bytes = core::kBufMaxPooledBytes;
  if (opts_.agg_bytes < sizeof(AggHeader) + sizeof(AggRecord)) opts_.agg_bytes = 0;
  agg_capacity_ = opts_.agg_bytes > 0 ? opts_.agg_bytes - sizeof(AggHeader) : 0;
  flush_ns_ = static_cast<std::uint64_t>(opts_.flush_us) * 1000;
  credit_batch_ = opts_.credits / 2 > 0 ? opts_.credits / 2 : 1;

  obs_.pvars.add(obs::Pvar::ConfigAmCredits, opts_.credits);
  obs_.pvars.add(obs::Pvar::ConfigAmAggBytes, opts_.agg_bytes);
  obs_.pvars.add(obs::Pvar::ConfigAmFlushUs, opts_.flush_us);

  pami::ClientWorld& world = ctx_.client().world();
  ctxs_per_task_ = world.config().contexts_per_task;
  peers_.resize(static_cast<std::size_t>(world.task_count()) *
                static_cast<std::size_t>(ctxs_per_task_));
  for (Peer& p : peers_) p.credits = opts_.credits;

  base_ = opts_.dispatch_base;
  assert(static_cast<std::size_t>(base_) + kDispatchSlots <= (1u << 12) &&
         "AM dispatch IDs exceed the context dispatch table");

  // base+0: one message or reply. Single-packet arrivals deliver
  // immediately; larger ones land in a pooled slab buffer first.
  ctx_.set_dispatch(
      static_cast<pami::DispatchId>(base_ + 0),
      [this](pami::Context&, const void* header, std::size_t, const void* pipe,
             std::size_t, std::size_t total, pami::Endpoint origin,
             pami::RecvDescriptor* rd) {
        MsgHeader h;
        std::memcpy(&h, header, sizeof h);
        if (rd == nullptr) {
          on_msg(h, origin, pipe, total);
          return;
        }
        const std::uint32_t slab = slab_put(ctx_.stage_pool().acquire(total));
        rd->buffer = slab_[slab].data();
        rd->bytes = total;
        rd->on_complete = [this, h, origin, slab, total] {
          on_msg(h, origin, slab_[slab].data(), total);
          slab_release(slab);
        };
      });
  // base+1: an aggregation packet of framed records.
  ctx_.set_dispatch(
      static_cast<pami::DispatchId>(base_ + 1),
      [this](pami::Context&, const void* header, std::size_t, const void* pipe,
             std::size_t, std::size_t total, pami::Endpoint origin,
             pami::RecvDescriptor* rd) {
        AggHeader h;
        std::memcpy(&h, header, sizeof h);
        if (rd == nullptr) {
          on_agg(h, origin, pipe, total);
          return;
        }
        const std::uint32_t slab = slab_put(ctx_.stage_pool().acquire(total));
        rd->buffer = slab_[slab].data();
        rd->bytes = total;
        rd->on_complete = [this, h, origin, slab, total] {
          on_agg(h, origin, slab_[slab].data(), total);
          slab_release(slab);
        };
      });
  // base+2: control (credit return / hello). Header-only, so always a
  // single-packet immediate delivery.
  ctx_.set_dispatch(
      static_cast<pami::DispatchId>(base_ + 2),
      [this](pami::Context&, const void* header, std::size_t, const void*, std::size_t,
             std::size_t, pami::Endpoint origin, pami::RecvDescriptor*) {
        CtlHeader h;
        std::memcpy(&h, header, sizeof h);
        on_ctl(h, origin);
      });

  ctx_.add_progress_device(&dev_);
}

Engine::~Engine() {
  ctx_.remove_progress_device(&dev_);
  for (int i = 0; i < kDispatchSlots; ++i) {
    ctx_.set_dispatch(static_cast<pami::DispatchId>(base_ + i), pami::DispatchFn{});
  }
}

// --------------------------------------------------------------- send path --

pami::Result Engine::send(pami::Endpoint dest, std::uint16_t handler, const void* data,
                          std::size_t bytes) {
  return enqueue(dest, handler, 0, 0, data, bytes);
}

pami::Result Engine::call(pami::Endpoint dest, std::uint16_t handler, const void* data,
                          std::size_t bytes, ReplyFn on_reply) {
  const std::uint32_t id = alloc_call(std::move(on_reply));
  if (id == 0) return pami::Result::Eagain;
  obs_.pvars.add(obs::Pvar::AmCalls);
  return enqueue(dest, handler, id, 0, data, bytes);
}

pami::Result Engine::call(pami::Endpoint dest, std::uint16_t handler, const void* data,
                          std::size_t bytes, Future& future) {
  future.ready_ = false;
  future.status_ = pami::Result::Success;
  future.buf_.reset();
  Future* f = &future;
  return call(dest, handler, data, bytes,
              ReplyFn([this, f](pami::Result st, const void* d, std::size_t n) {
                f->status_ = st;
                f->buf_ = ctx_.stage_pool().acquire_copy(d, n);
                f->ready_ = true;
              }));
}

pami::Result Engine::reply(const AmMsg& msg, const void* data, std::size_t bytes,
                           bool error) {
  if (msg.call_id == 0) return pami::Result::Invalid;
  obs_.pvars.add(obs::Pvar::AmReplies);
  return enqueue(msg.origin, msg.handler, msg.call_id,
                 static_cast<std::uint16_t>(kMsgReply | (error ? kMsgError : 0)), data,
                 bytes);
}

pami::Result Engine::enqueue(pami::Endpoint dest, std::uint16_t handler,
                             std::uint32_t call_id, std::uint16_t flags,
                             const void* data, std::size_t bytes) {
  const std::size_t idx = peer_index(dest);
  assert(idx < peers_.size() && "destination endpoint out of range");
  Peer& p = peers_[idx];
  p.hello_announced = true;  // every outgoing AM header carries table_version
  p.hello_due = false;       // ...so a pending hello becomes redundant
  obs_.pvars.add(obs::Pvar::AmSends);

  const bool reply = (flags & kMsgReply) != 0;
  const std::uint16_t version = reply ? 0 : handlers_.version_of(handler);
  const EntryKind kind = (agg_capacity_ > 0 && agg_record_bytes(bytes) <= agg_capacity_)
                             ? EntryKind::Record
                             : EntryKind::Direct;

  // Park behind earlier parked sends (per-peer FIFO order) or at zero
  // credits. Parking is side-effect-free: credits are consumed at drain.
  if (p.q_live() > 0 || (!reply && p.credits == 0)) {
    if (!reply && p.credits == 0) {
      obs_.pvars.add(obs::Pvar::AmCreditStalls);
      ctx_.obs().trace.record(obs::TraceEv::AmCreditStall,
                              static_cast<std::uint32_t>(idx));
    }
    const std::uint32_t slab =
        bytes > 0 ? slab_put(ctx_.stage_pool().acquire_copy(data, bytes)) : kNoSlab;
    park(p, idx, kind, handler, version, call_id, flags, slab, bytes);
    return pami::Result::Success;
  }

  if (kind == EntryKind::Record) {
    if (!agg_ensure_room(p, idx, agg_record_bytes(bytes))) {
      // Buffer full and the flush bounced off a saturated FIFO: park.
      const std::uint32_t slab =
          bytes > 0 ? slab_put(ctx_.stage_pool().acquire_copy(data, bytes)) : kNoSlab;
      park(p, idx, kind, handler, version, call_id, flags, slab, bytes);
      return pami::Result::Success;
    }
    if (!reply) --p.credits;
    agg_append(p, idx, handler, version, call_id, flags, data, bytes);
    return pami::Result::Success;
  }

  // Direct send: flush staged records first so per-peer order holds.
  if (p.agg_records > 0 && !flush_peer(p, idx, FlushWhy::Explicit)) {
    const std::uint32_t slab =
        bytes > 0 ? slab_put(ctx_.stage_pool().acquire_copy(data, bytes)) : kNoSlab;
    park(p, idx, kind, handler, version, call_id, flags, slab, bytes);
    return pami::Result::Success;
  }
  // Rendezvous/zero-copy delivery reads the source after we return, so
  // those sizes stage into a slab buffer up front; eager/shm-inline sizes
  // go straight from the caller's buffer (the protocol stages its own copy).
  std::uint32_t slab = kNoSlab;
  const void* src = data;
  if (bytes > 0 && needs_copy(dest, bytes)) {
    slab = slab_put(ctx_.stage_pool().acquire_copy(data, bytes));
    src = slab_[slab].data();
  }
  if (send_direct(p, idx, handler, version, call_id, flags, src, bytes, slab) !=
      pami::Result::Success) {
    if (slab == kNoSlab && bytes > 0) {
      slab = slab_put(ctx_.stage_pool().acquire_copy(data, bytes));
    }
    park(p, idx, kind, handler, version, call_id, flags, slab, bytes);
    return pami::Result::Success;
  }
  if (!reply) --p.credits;
  return pami::Result::Success;
}

void Engine::park(Peer& p, std::size_t idx, EntryKind kind, std::uint16_t handler,
                  std::uint16_t version, std::uint32_t call_id, std::uint16_t flags,
                  std::uint32_t slab, std::size_t bytes) {
  Parked e;
  e.kind = kind;
  e.handler = handler;
  e.version = version;
  e.flags = flags;
  e.call_id = call_id;
  e.slab = slab;
  e.bytes = static_cast<std::uint32_t>(bytes);
  p.q.push_back(e);
  list_add(parked_list_, p.in_parked_list, idx);
}

std::size_t Engine::drain_peer(std::size_t idx) {
  Peer& p = peers_[idx];
  std::size_t drained = 0;
  while (p.q_head < p.q.size()) {
    Parked& e = p.q[p.q_head];
    const bool reply = (e.flags & kMsgReply) != 0;
    if (!reply && p.credits == 0) break;
    if (e.kind == EntryKind::Record) {
      if (!agg_ensure_room(p, idx, agg_record_bytes(e.bytes))) break;
      agg_append(p, idx, e.handler, e.version, e.call_id, e.flags,
                 e.slab == kNoSlab ? nullptr : slab_[e.slab].data(), e.bytes);
      if (e.slab != kNoSlab) slab_release(e.slab);
      if (!reply) --p.credits;
    } else {
      if (p.agg_records > 0 && !flush_peer(p, idx, FlushWhy::Explicit)) break;
      const void* src = e.slab == kNoSlab ? nullptr : slab_[e.slab].data();
      if (send_direct(p, idx, e.handler, e.version, e.call_id, e.flags, src, e.bytes,
                      e.slab) != pami::Result::Success) {
        break;  // entry (and its slab payload) stays parked for the next poll
      }
      if (!reply) --p.credits;
    }
    ++p.q_head;
    ++drained;
  }
  if (p.q_head == p.q.size()) {
    p.q.clear();
    p.q_head = 0;
  }
  return drained;
}

bool Engine::agg_ensure_room(Peer& p, std::size_t idx, std::size_t need) {
  if (p.agg_records > 0 && p.agg_used + need > agg_capacity_) {
    return flush_peer(p, idx, FlushWhy::Full);
  }
  return true;
}

void Engine::agg_append(Peer& p, std::size_t idx, std::uint16_t handler,
                        std::uint16_t version, std::uint32_t call_id,
                        std::uint16_t flags, const void* data, std::size_t bytes) {
  if (p.agg_records == 0) {
    // The buffer survives eager flushes (the protocol stages its own
    // copy) and only needs reacquiring after a slab handoff.
    if (p.agg.capacity() < agg_capacity_) p.agg = ctx_.stage_pool().acquire(agg_capacity_);
    p.agg_used = 0;
    p.agg_oldest_ns = obs::now_ns();
    list_add(agg_list_, p.in_agg_list, idx);
  }
  AggRecord r;
  r.handler = handler;
  r.version = version;
  r.call_id = call_id;
  r.bytes = static_cast<std::uint32_t>(bytes);
  r.flags = flags;
  std::byte* dst = p.agg.data() + p.agg_used;
  std::memcpy(dst, &r, sizeof r);
  if (bytes > 0) std::memcpy(dst + sizeof r, data, bytes);
  p.agg_used += agg_record_bytes(bytes);
  ++p.agg_records;
}

bool Engine::flush_peer(Peer& p, std::size_t idx, FlushWhy why) {
  if (p.agg_records == 0) return true;
  const pami::Endpoint dest = peer_endpoint(idx);
  AggHeader h;
  h.count = p.agg_records;
  h.credits = take_owed(p);
  h.table_version = handlers_.table_version();

  pami::SendParams sp;
  sp.dispatch = static_cast<pami::DispatchId>(base_ + 1);
  sp.dest = dest;
  sp.header = &h;
  sp.header_bytes = sizeof h;
  sp.data_bytes = p.agg_used;

  std::uint32_t slab = kNoSlab;
  if (needs_copy(dest, p.agg_used)) {
    // Rendezvous/zero-copy delivery reads the buffer after we return:
    // hand it to the slab and free it on local completion.
    slab = slab_put(std::move(p.agg));
    sp.data = slab_[slab].data();
    sp.on_local_done = [this, slab] { slab_release(slab); };
  } else {
    sp.data = p.agg.data();
  }

  const std::uint16_t records = p.agg_records;
  if (ctx_.send(sp) != pami::Result::Success) {
    restore_owed(p, h.credits);
    if (slab != kNoSlab) p.agg = slab_take(slab);
    return false;
  }
  if (h.credits > 0) obs_.pvars.add(obs::Pvar::AmCreditsReturned, h.credits);
  obs_.pvars.add(obs::Pvar::AmAggPackets);
  obs_.pvars.add(obs::Pvar::AmAggRecords, records);
  switch (why) {
    case FlushWhy::Full: obs_.pvars.add(obs::Pvar::AmAggFlushFull); break;
    case FlushWhy::Timeout: obs_.pvars.add(obs::Pvar::AmAggFlushTimeout); break;
    case FlushWhy::Explicit: obs_.pvars.add(obs::Pvar::AmAggFlushExplicit); break;
  }
  ctx_.obs().trace.record(obs::TraceEv::AmAggFlush, records);
  p.agg_used = 0;
  p.agg_records = 0;
  return true;
}

pami::Result Engine::send_direct(Peer& p, std::size_t idx, std::uint16_t handler,
                                 std::uint16_t version, std::uint32_t call_id,
                                 std::uint16_t flags, const void* data,
                                 std::size_t bytes, std::uint32_t slab) {
  MsgHeader h;
  h.handler = handler;
  h.version = version;
  h.call_id = call_id;
  h.credits = take_owed(p);
  h.flags = flags;
  h.table_version = handlers_.table_version();

  pami::SendParams sp;
  sp.dispatch = static_cast<pami::DispatchId>(base_ + 0);
  sp.dest = peer_endpoint(idx);
  sp.header = &h;
  sp.header_bytes = sizeof h;
  sp.data = data;
  sp.data_bytes = bytes;
  if (slab != kNoSlab) {
    sp.on_local_done = [this, slab] { slab_release(slab); };
  }
  if (ctx_.send(sp) != pami::Result::Success) {
    restore_owed(p, h.credits);
    return pami::Result::Eagain;
  }
  if (h.credits > 0) obs_.pvars.add(obs::Pvar::AmCreditsReturned, h.credits);
  return pami::Result::Success;
}

bool Engine::send_ctl(Peer& p, std::size_t idx) {
  const bool hello = p.hello_due;
  const std::uint16_t creds = take_owed(p);
  if (!hello && creds == 0) return true;  // piggybacks beat us to it
  CtlHeader h;
  h.credits = creds;
  h.flags = hello ? kCtlHello : 0;
  h.table_version = handlers_.table_version();

  pami::SendParams sp;
  sp.dispatch = static_cast<pami::DispatchId>(base_ + 2);
  sp.dest = peer_endpoint(idx);
  sp.header = &h;
  sp.header_bytes = sizeof h;
  if (ctx_.send(sp) != pami::Result::Success) {
    restore_owed(p, creds);
    return false;
  }
  if (hello) {
    p.hello_due = false;
    p.hello_announced = true;
    obs_.pvars.add(obs::Pvar::AmHellosSent);
  }
  obs_.pvars.add(obs::Pvar::AmCreditCtlPackets);
  if (creds > 0) obs_.pvars.add(obs::Pvar::AmCreditsReturned, creds);
  return true;
}

bool Engine::needs_copy(pami::Endpoint dest, std::size_t bytes) const {
  const pami::ClientConfig& cfg = ctx_.client().world().config();
  runtime::Machine& m = ctx_.client().machine();
  const bool same_node =
      m.node_of_task(dest.task) == m.node_of_task(ctx_.client().task());
  return same_node ? bytes > cfg.shm_eager_limit : bytes > cfg.eager_limit;
}

// ------------------------------------------------------------ receive path --

void Engine::on_msg(const MsgHeader& h, pami::Endpoint origin, const void* data,
                    std::size_t bytes) {
  const std::size_t idx = peer_index(origin);
  Peer& p = peers_[idx];
  note_peer_version(p, idx, h.table_version);
  if (h.credits > 0) credit_arrival(p, h.credits);
  if (h.flags & kMsgReply) {
    complete_call(h.call_id,
                  (h.flags & kMsgError) ? pami::Result::Error : pami::Result::Success,
                  data, bytes);
    return;
  }
  deliver(idx, origin, h.handler, h.version, h.call_id, data, bytes);
}

void Engine::on_agg(const AggHeader& h, pami::Endpoint origin, const void* data,
                    std::size_t bytes) {
  const std::size_t idx = peer_index(origin);
  Peer& p = peers_[idx];
  note_peer_version(p, idx, h.table_version);
  if (h.credits > 0) credit_arrival(p, h.credits);
  const std::byte* cur = static_cast<const std::byte*>(data);
  [[maybe_unused]] const std::byte* end = cur + bytes;
  for (std::uint16_t i = 0; i < h.count; ++i) {
    AggRecord r;
    assert(cur + sizeof r <= end && "malformed aggregation packet");
    std::memcpy(&r, cur, sizeof r);
    const void* payload = r.bytes > 0 ? cur + sizeof r : nullptr;
    cur += agg_record_bytes(r.bytes);
    if (r.flags & kMsgReply) {
      complete_call(r.call_id,
                    (r.flags & kMsgError) ? pami::Result::Error : pami::Result::Success,
                    payload, r.bytes);
    } else {
      deliver(idx, origin, r.handler, r.version, r.call_id, payload, r.bytes);
    }
  }
}

void Engine::on_ctl(const CtlHeader& h, pami::Endpoint origin) {
  const std::size_t idx = peer_index(origin);
  Peer& p = peers_[idx];
  note_peer_version(p, idx, h.table_version);
  if (h.credits > 0) credit_arrival(p, h.credits);
}

void Engine::deliver(std::size_t idx, pami::Endpoint origin, std::uint16_t handler,
                     std::uint16_t version, std::uint32_t call_id, const void* data,
                     std::size_t bytes) {
  obs_.pvars.add(obs::Pvar::AmDispatches);
  HandlerTable::Slot* s = handlers_.lookup(handler);
  if (s == nullptr || s->version != version) {
    // Registration asymmetry: never run a mismatched handler. Callers
    // expecting a reply get an error completion instead of a hang.
    obs_.pvars.add(obs::Pvar::AmVersionMismatches);
    // Grant before the error reply so the reply piggybacks this credit.
    grant_credit(idx);
    if (call_id != 0) {
      enqueue(origin, handler, call_id,
              static_cast<std::uint16_t>(kMsgReply | kMsgError), nullptr, 0);
    }
    return;
  }
  if (s->mode == ExecMode::Inline) {
    // Grant before the handler runs: an inline handler completes
    // synchronously, and granting first lets a reply it issues carry the
    // credit for the very message it answers — the common RPC pattern
    // then needs no credit-return control traffic at all.
    grant_credit(idx);
    obs::Domain& tr = ctx_.obs();
    const bool tracing = tr.trace.enabled();
    const std::uint64_t t0 = tracing ? obs::now_ns() : 0;
    AmMsg m{ctx_, origin, data, bytes, call_id, handler};
    s->fn(*this, m);
    if (tracing) {
      tr.trace.record_span(obs::TraceEv::AmDispatch, t0,
                           static_cast<std::uint32_t>(bytes));
    }
    return;
  }
  // Deferred: copy the payload (its backing packet/slab is recycled when
  // this dispatch returns) and run the handler from the work queue. The
  // credit returns only after the handler has actually run, so deferral
  // backpressure reaches the sender.
  const std::uint32_t slab =
      bytes > 0 ? slab_put(ctx_.stage_pool().acquire_copy(data, bytes)) : kNoSlab;
  ctx_.post([this, origin, handler, call_id, slab, bytes] {
    obs_.pvars.add(obs::Pvar::AmDeferredRuns);
    AmMsg m{ctx_, origin, slab == kNoSlab ? nullptr : slab_[slab].data(), bytes,
            call_id, handler};
    if (HandlerTable::Slot* s2 = handlers_.lookup(handler)) s2->fn(*this, m);
    if (slab != kNoSlab) slab_release(slab);
    grant_credit(peer_index(origin));
  });
}

void Engine::grant_credit(std::size_t idx) {
  Peer& p = peers_[idx];
  ++p.owed;
  if (p.owed >= credit_batch_) list_add(ctl_list_, p.in_ctl_list, idx);
}

void Engine::credit_arrival(Peer& p, std::uint32_t n) {
  // Parked sends drain from the device poll later in this same advance
  // pass (the AmDevice sits behind the MU/shm devices in drain order).
  p.credits += n;
}

void Engine::note_peer_version(Peer& p, std::size_t idx, std::uint32_t table_version) {
  if (table_version > p.table_version_seen) p.table_version_seen = table_version;
  if (!p.hello_announced && !p.hello_due) {
    // Inbound-first contact: announce our table version back so a pure
    // server side still completes the handshake.
    p.hello_due = true;
    list_add(ctl_list_, p.in_ctl_list, idx);
  }
}

// ------------------------------------------------------------------- calls --

std::uint32_t Engine::alloc_call(ReplyFn fn) {
  std::uint32_t idx;
  if (!call_free_.empty()) {
    idx = call_free_.back();
    call_free_.pop_back();
  } else {
    if (calls_.size() >= 0xFFFF) return 0;  // correlation space exhausted
    idx = static_cast<std::uint32_t>(calls_.size());
    calls_.emplace_back();
  }
  CallSlot& s = calls_[idx];
  s.fn = std::move(fn);
  s.in_use = true;
  add_calls_live(1);
  return ((idx + 1) << 16) | s.gen;
}

void Engine::free_call(std::uint32_t id) {
  const std::uint32_t idx = (id >> 16) - 1;
  CallSlot& s = calls_[idx];
  s.fn = ReplyFn{};
  s.in_use = false;
  ++s.gen;
  call_free_.push_back(idx);
  add_calls_live(-1);
}

void Engine::complete_call(std::uint32_t id, pami::Result status, const void* data,
                           std::size_t bytes) {
  if (id == 0) return;
  const std::uint32_t idx = (id >> 16) - 1;
  const std::uint16_t gen = static_cast<std::uint16_t>(id & 0xFFFFu);
  if (idx >= calls_.size() || !calls_[idx].in_use || calls_[idx].gen != gen) {
    return;  // stale or duplicate completion
  }
  ReplyFn fn = std::move(calls_[idx].fn);
  calls_[idx].in_use = false;
  ++calls_[idx].gen;
  call_free_.push_back(idx);
  add_calls_live(-1);
  if (fn) fn(status, data, bytes);
}

// ------------------------------------------------------------ flush / poll --

void Engine::flush(pami::Endpoint dest) {
  const std::size_t idx = peer_index(dest);
  Peer& p = peers_[idx];
  drain_peer(idx);
  if (p.agg_records > 0) flush_peer(p, idx, FlushWhy::Explicit);
}

void Engine::flush() {
  for (std::size_t i = 0; i < parked_list_.size(); ++i) drain_peer(parked_list_[i]);
  for (std::size_t i = 0; i < agg_list_.size(); ++i) {
    Peer& p = peers_[agg_list_[i]];
    if (p.agg_records > 0) flush_peer(p, agg_list_[i], FlushWhy::Explicit);
  }
}

std::size_t Engine::poll() {
  std::size_t events = 0;
  // 1. Drain parked per-peer FIFOs as far as credits and FIFO space allow.
  if (!parked_list_.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < parked_list_.size(); ++i) {
      const std::uint32_t idx = parked_list_[i];
      events += drain_peer(idx);
      if (peers_[idx].q_live() > 0) {
        parked_list_[w++] = idx;
      } else {
        peers_[idx].in_parked_list = false;
      }
    }
    parked_list_.resize(w);
  }
  // 2. Timeout flushes. One clock read per pass, and only when some
  // buffer is actually non-empty — an idle context never reads the clock.
  if (!agg_list_.empty()) {
    const std::uint64_t now = flush_ns_ > 0 ? obs::now_ns() : 0;
    std::size_t w = 0;
    for (std::size_t i = 0; i < agg_list_.size(); ++i) {
      const std::uint32_t idx = agg_list_[i];
      Peer& p = peers_[idx];
      if (p.agg_records > 0 &&
          (flush_ns_ == 0 || now - p.agg_oldest_ns >= flush_ns_)) {
        if (flush_peer(p, idx, FlushWhy::Timeout)) ++events;
      }
      if (p.agg_records > 0) {
        agg_list_[w++] = idx;
      } else {
        p.in_agg_list = false;
      }
    }
    agg_list_.resize(w);
  }
  // 3. Control sends (batched credit returns, hellos) that are due or
  // bounced earlier. These bypass the parked FIFOs by design: a credit
  // return must never queue behind the very sends it would unblock.
  if (!ctl_list_.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < ctl_list_.size(); ++i) {
      const std::uint32_t idx = ctl_list_[i];
      Peer& p = peers_[idx];
      const bool need = p.hello_due || p.owed >= credit_batch_;
      const bool done = !need || send_ctl(p, idx);
      if (need && done) ++events;
      if (!done) {
        ctl_list_[w++] = idx;
      } else {
        p.in_ctl_list = false;
      }
    }
    ctl_list_.resize(w);
  }
  publish_listed();
  return events;
}

bool Engine::idle() const { return listed_.load(std::memory_order_relaxed) == 0; }

bool Engine::has_pending_state() const {
  return !idle() || calls_live_.load(std::memory_order_relaxed) > 0;
}

std::size_t Engine::parked_sends() const {
  std::size_t n = 0;
  for (const std::uint32_t idx : parked_list_) n += peers_[idx].q_live();
  return n;
}

bool Engine::quiescent() const { return !has_pending_state(); }

// -------------------------------------------------------------------- misc --

std::uint16_t Engine::take_owed(Peer& p) {
  const std::uint32_t n = p.owed > 0xFFFFu ? 0xFFFFu : p.owed;
  p.owed -= n;
  return static_cast<std::uint16_t>(n);
}

std::uint32_t Engine::slab_put(core::Buf b) {
  if (!slab_free_.empty()) {
    const std::uint32_t idx = slab_free_.back();
    slab_free_.pop_back();
    slab_[idx] = std::move(b);
    return idx;
  }
  slab_.push_back(std::move(b));
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

core::Buf Engine::slab_take(std::uint32_t idx) {
  core::Buf b = std::move(slab_[idx]);
  slab_free_.push_back(idx);
  return b;
}

void Engine::slab_release(std::uint32_t idx) {
  slab_[idx].reset();
  slab_free_.push_back(idx);
}

}  // namespace pamix::am

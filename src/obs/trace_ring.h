// Lock-free per-context event tracer.
//
// A TraceRing is a fixed-size ring of 24-byte timestamped events with
// exactly one writer: the thread currently advancing the owning context
// (context advance runs under the context lock, so writes are serialized
// and the lock's ordering publishes them). record() is a bounds-check, a
// category-mask test, one clock read and one array store — no atomics, no
// allocation — and the ring overwrites its oldest events when full, so a
// long run keeps the most recent window. A disabled ring costs one load:
// the check comes before the clock read.
//
// Readers (the exporter) run after the traced threads have quiesced
// (benches export after stop()/finalize()); the ring makes no attempt to
// support concurrent read-while-write beyond tearing individual events.
//
// Build-time gate: compiling with -DPAMIX_OBS=OFF (PAMIX_OBS_ENABLED=0)
// turns every record call into an empty inline function and enable() into
// a no-op, so the tracer compiles to nothing and rings never allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/clock.h"

#ifndef PAMIX_OBS_ENABLED
#define PAMIX_OBS_ENABLED 1
#endif

namespace pamix::obs {

/// Event kinds recorded by the runtime. Adding one means also adding its
/// name and category to trace_ev_name()/trace_ev_cat() in registry.cpp.
enum class TraceEv : std::uint8_t {
  SendEagerBegin,
  SendRdzvBegin,
  SendShmBegin,
  SendComplete,
  RdzvRts,
  RdzvPull,
  RdzvDone,
  AdvanceBatch,  // span: one advance() pass that processed >0 events
  WorkDrain,     // instant: arg = work items run in one pass
  CommSleep,     // span: a commthread's wakeup-unit sleep
  CommWake,      // instant: the store that ended the sleep arrived
  CommSpin,      // span: the spin window between the last event and arming
  CommFastWake,  // instant: a sleep ended by the handoff doorbell store
  CommSteal,     // instant: a blocking call advanced a covered context; arg = events
  CollPhase,     // instant: a collective-network round fired; arg = round
  CollSliceMath, // span: parallel local reduce of one pipeline slice; arg = bytes
  CollArm,       // instant: master armed a network round; arg = round
  CollCopyOut,   // span: peer copy-out of a completed slice; arg = bytes
  RectChunkRelay, // span: one rect-bcast chunk forwarded down a color tree; arg = bytes
  MpiMatch,      // span: one arrival through the MPI matcher; arg = seq
  AmDispatch,    // span: one AM handler execution; arg = payload bytes
  AmAggFlush,    // instant: one aggregation buffer flushed; arg = records
  AmCreditStall, // instant: a send parked on zero credits; arg = peer index
  Count,
};

/// Category bits for PAMIX_TRACE_EVENTS filtering.
enum TraceCat : std::uint32_t {
  kCatSend = 1u << 0,
  kCatRdzv = 1u << 1,
  kCatAdvance = 1u << 2,
  kCatWork = 1u << 3,
  kCatCommthread = 1u << 4,
  kCatCollective = 1u << 5,
  kCatMpi = 1u << 6,
  kCatAm = 1u << 7,
};

const char* trace_ev_name(TraceEv ev);
TraceCat trace_ev_cat(TraceEv ev);

struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint32_t dur_ns = 0;  // 0 = instant event, else a span
  std::uint32_t arg = 0;     // event-specific payload (bytes, count, round)
  TraceEv type = TraceEv::Count;
};

class TraceRing {
 public:
  TraceRing() = default;  // disabled: record() is a no-op until enable()

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

#if PAMIX_OBS_ENABLED

  /// Allocate the ring. Not thread safe; call before the writer starts.
  void enable(std::size_t capacity, std::uint32_t category_mask = ~0u) {
    if (capacity == 0) return;
    ring_.resize(capacity);
    mask_ = category_mask;
  }

  bool enabled() const { return !ring_.empty(); }

  /// Single-writer append of an instant event. A disabled ring returns
  /// before reading the clock.
  void record(TraceEv ev, std::uint32_t arg = 0) {
    if (enabled()) record_at(ev, now_ns(), 0, arg);
  }

  /// Single-writer append of a span that started at `start_ns` and ends now.
  /// Callers take `start_ns` only when enabled(); a disabled ring ignores it.
  void record_span(TraceEv ev, std::uint64_t start_ns, std::uint32_t arg = 0) {
    if (!enabled()) return;
    const std::uint64_t end = now_ns();
    const std::uint64_t dur = end > start_ns ? end - start_ns : 0;
    record_at(ev, start_ns, dur > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(dur),
              arg);
  }

  void record_at(TraceEv ev, std::uint64_t ts_ns, std::uint32_t dur_ns, std::uint32_t arg) {
    if (ring_.empty() || (mask_ & trace_ev_cat(ev)) == 0) return;
    TraceEvent& e = ring_[static_cast<std::size_t>(head_ % ring_.size())];
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.arg = arg;
    e.type = ev;
    ++head_;
  }

  /// Events ever recorded (including ones the ring has since overwritten).
  std::uint64_t recorded() const { return head_; }

  /// Events currently held.
  std::size_t size() const {
    return ring_.empty() ? 0 : static_cast<std::size_t>(std::min<std::uint64_t>(head_, ring_.size()));
  }

  std::size_t capacity() const { return ring_.size(); }

  /// Copy out the held events, oldest first. Reader-side; call only when
  /// the writer has quiesced.
  std::vector<TraceEvent> drain_copy() const {
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = head_ - n;
    for (std::uint64_t i = first; i < head_; ++i) {
      out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
    }
    return out;
  }

#else  // PAMIX_OBS_ENABLED == 0: the tracer compiles to nothing.

  void enable(std::size_t, std::uint32_t = ~0u) {}
  bool enabled() const { return false; }
  void record(TraceEv, std::uint32_t = 0) {}
  void record_span(TraceEv, std::uint64_t, std::uint32_t = 0) {}
  void record_at(TraceEv, std::uint64_t, std::uint32_t, std::uint32_t) {}
  std::uint64_t recorded() const { return 0; }
  std::size_t size() const { return 0; }
  std::size_t capacity() const { return 0; }
  std::vector<TraceEvent> drain_copy() const { return {}; }

#endif

 private:
#if PAMIX_OBS_ENABLED
  std::vector<TraceEvent> ring_;
  std::uint64_t head_ = 0;  // plain: single writer, readers quiesce first
  std::uint32_t mask_ = ~0u;
#endif
};

}  // namespace pamix::obs

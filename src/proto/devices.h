// Concrete progress devices (paper §III-B/C).
//
// Five devices cover everything a context must drive:
//   WorkQueueDevice — drains the lockless context-post queue
//   ControlDevice   — re-injects must-not-drop control descriptors that
//                     bounced off a saturated injection FIFO
//   MuDevice        — runs the MU message engines over the context's
//                     backlogged injection FIFOs and drains its reception
//                     FIFO, routing packets back to the engine by flag bits
//   ShmQueueDevice  — drains this context's slice of the process's
//                     shared-memory reception queue
//   CounterDevice   — polls outstanding MU reception counters (RDMA
//                     completion): poll-only, so it reports !idle() while
//                     counters are outstanding to keep commthreads awake
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/shmem_device.h"
#include "core/types.h"
#include "core/work_queue.h"
#include "hw/mu.h"
#include "obs/pvar.h"
#include "proto/device.h"

namespace pamix::proto {

class ProgressEngine;

/// Drains the context's lockless multi-producer work queue.
class WorkQueueDevice final : public Device {
 public:
  WorkQueueDevice(pami::WorkQueue& queue, obs::Domain& obs) : queue_(queue), obs_(obs) {}

  const char* name() const override { return "workqueue"; }
  std::size_t poll() override;
  const void* wakeup_address() const override { return queue_.wakeup_address(); }
  bool idle() const override { return queue_.empty(); }

 private:
  pami::WorkQueue& queue_;
  obs::Domain& obs_;
};

/// Deferred control-packet queue. Control packets (DONE, eager acks,
/// remote-get requests) must never be dropped: when the injection FIFO is
/// saturated they park here and poll() flushes once per advance pass (so a
/// stalled peer cannot spin this context's advance forever). Poll-only:
/// nothing external signals that the FIFO drained, so idle() is false
/// while anything is parked.
class ControlDevice final : public Device {
 public:
  explicit ControlDevice(ProgressEngine& engine) : engine_(engine) {}

  const char* name() const override { return "control"; }
  std::size_t poll() override;
  bool idle() const override { return parked_.load(std::memory_order_relaxed) == 0; }
  bool has_pending_state() const override { return !idle(); }

  void park(int dest_node, hw::MuDescriptor desc) {
    pending_.emplace_back(dest_node, std::move(desc));
    parked_.store(pending_.size(), std::memory_order_relaxed);
  }

 private:
  ProgressEngine& engine_;
  std::deque<std::pair<int, hw::MuDescriptor>> pending_;
  // pending_.size(), mirrored for the concurrent predicates: only the
  // advancing thread touches the deque itself.
  std::atomic<std::size_t> parked_{0};
};

/// The MU device: advances the message engines over this context's
/// injection FIFOs and drains its reception FIFO (budgeted per pass),
/// handing each packet to the engine's protocol router.
///
/// Injection keeps a backlog mask over the context's FIFOs: bit j is set
/// while FIFO first + j holds a queued or half-injected descriptor. Every
/// descriptor enters an owned FIFO through push(), which kicks the engine
/// and sets the bit if work remains; poll() walks only the set bits and
/// clears each once its FIFO drains. An idle pass therefore reads one word
/// for injection, not every FIFO's ring and resume slot.
class MuDevice final : public Device {
 public:
  /// The mask has one bit per FIFO; contexts claim at most this many.
  static constexpr int kMaxInjFifos = 64;

  MuDevice(ProgressEngine& engine, hw::MessagingUnit& mu, int first_inj_fifo, int inj_fifos,
           int rec_fifo, obs::Domain& obs, int batch);

  const char* name() const override { return "mu"; }
  std::size_t poll() override;
  /// Injection-only drain: advance this context's message engines without
  /// touching the reception FIFO. Used by the endpoint immediate-send
  /// retry loop — an Eagain means *our* injection FIFOs are saturated, and
  /// draining only them keeps the retry bounded to state this endpoint
  /// owns (reception still drains on the owner's full advance).
  std::size_t poll_injection();
  const void* wakeup_address() const override {
    return &mu_.rec_fifo(rec_fifo_).delivered_count();
  }
  /// A backlogged FIFO is poll-only work (nothing signals that the remote
  /// reception FIFO made room), so it keeps commthreads awake.
  bool idle() const override {
    return backlog_.load(std::memory_order_relaxed) == 0 && mu_.rec_fifo(rec_fifo_).empty();
  }

  /// Static per-destination FIFO pinning (see ProgressEngine::inj_fifo_for).
  int fifo_for(int dest_node) const { return first_inj_ + dest_node % inj_count_; }
  /// Push onto owned FIFO `fifo` and kick its engine; when the FIFO is
  /// full, drain it once and retry. Consumes `desc` only on success.
  bool push(int fifo, hw::MuDescriptor&& desc);

 private:
  /// Set or clear FIFO `fifo`'s backlog bit from its current state.
  void update_backlog(int fifo);

  ProgressEngine& engine_;
  hw::MessagingUnit& mu_;
  int first_inj_;
  int inj_count_;
  int rec_fifo_;
  obs::Domain& obs_;
  /// Backlog mask. Written only by the advancing thread; atomic (relaxed)
  /// because commthreads read it concurrently through idle().
  std::atomic<std::uint64_t> backlog_{0};
  /// Reusable reception scratch: poll() drains up to batch_.size() packets
  /// from the rec FIFO in one lock acquisition (config.mu_batch), then
  /// dispatches them outside the FIFO structures. The vector is sized once
  /// and never reallocates, so steady-state reception performs no
  /// allocation. Doubles as the per-pass drain budget that bounds time
  /// spent in dispatch handlers before other devices get a turn.
  std::vector<hw::MuPacket> batch_;
  // True while poll() iterates batch_; a re-entrant poll must not reuse it.
  bool polling_ = false;
  // Slots of batch_ the last poll filled; handlers take packets by
  // reference, so their payloads stay there until the next poll.
  std::size_t held_ = 0;
};

/// This context's slice of the process's shared-memory device.
class ShmQueueDevice final : public Device {
 public:
  ShmQueueDevice(ProgressEngine& engine, pami::ShmDevice& shm, std::int16_t ctx)
      : engine_(engine), shm_(shm), ctx_(ctx) {}

  const char* name() const override { return "shm"; }
  std::size_t poll() override;
  const void* wakeup_address() const override { return shm_.wakeup_address(); }
  bool idle() const override { return shm_.idle(ctx_); }

 private:
  ProgressEngine& engine_;
  pami::ShmDevice& shm_;
  std::int16_t ctx_;
};

/// Outstanding MU reception counters (direct-put / remote-get completion,
/// shm zero-copy drain). Completion is observed only by polling — there is
/// no wakeup write — so the device reports !idle() while counters are
/// outstanding, keeping commthreads out of the wakeup sleep.
class CounterDevice final : public Device {
 public:
  /// `pass_pulls`: the most counters one advance pass can put in flight —
  /// one per packet the MU device drains (config.mu_batch), since each
  /// received RTS starts one pull.
  explicit CounterDevice(std::size_t pass_pulls) : pass_pulls_(pass_pulls) {}

  const char* name() const override { return "counters"; }
  std::size_t poll() override;
  bool idle() const override { return outstanding_.load(std::memory_order_relaxed) == 0; }
  bool has_pending_state() const override { return !idle(); }

  /// Fire `on_done`, then `then`, when the counter drains. Two slots so
  /// callers can chain a user callback and a protocol completion step
  /// without nesting one inline callable inside another's capture.
  void watch(std::unique_ptr<hw::MuReceptionCounter> counter, pami::EventFn on_done,
             pami::EventFn then = pami::EventFn{}) {
    pending_.push_back(Pending{std::move(counter), std::move(on_done), std::move(then)});
    outstanding_.store(pending_.size(), std::memory_order_relaxed);
  }

  /// Pooled counter acquire: drained counters recycle through this device
  /// (the completion point), so steady-state RDMA pulls never allocate.
  /// Stock grows a whole pass at a time, so a receiver that drains a full
  /// batch of RTS packets at once — however late it was scheduled — finds
  /// counters and pending slots ready. Callers re-prime before use.
  std::unique_ptr<hw::MuReceptionCounter> acquire() {
    if (free_.empty()) {
      created_ += pass_pulls_;
      free_.reserve(created_);
      pending_.reserve(created_);
      for (std::size_t i = 0; i < pass_pulls_; ++i) {
        free_.push_back(std::make_unique<hw::MuReceptionCounter>());
      }
    }
    auto c = std::move(free_.back());
    free_.pop_back();
    return c;
  }
  /// Return an acquired-but-unused counter (a send that bounced Eagain).
  void release(std::unique_ptr<hw::MuReceptionCounter> counter) {
    free_.push_back(std::move(counter));
  }

 private:
  struct Pending {
    std::unique_ptr<hw::MuReceptionCounter> counter;
    pami::EventFn on_done;
    pami::EventFn then;
  };
  std::vector<Pending> pending_;
  std::vector<std::unique_ptr<hw::MuReceptionCounter>> free_;
  std::size_t pass_pulls_;
  std::size_t created_ = 0;  // counters acquire() has made
  // pending_.size(), mirrored for the concurrent predicates: only the
  // advancing thread touches the vector itself.
  std::atomic<std::size_t> outstanding_{0};
};

}  // namespace pamix::proto

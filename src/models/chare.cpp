#include "models/chare.h"

#include <cassert>
#include <cstring>

namespace pamix::models {

namespace {
struct ChareHeader {
  std::int32_t element = 0;
  std::int32_t method = 0;
};
}  // namespace

void ChareSendApi::send(int dest_element, int method, const void* data, std::size_t bytes) {
  rt_->send(dest_element, method, data, bytes);
}

ChareRuntime::ChareRuntime(pami::ClientWorld& world, int task, int elements,
                           ChareHandler handler)
    : world_(world),
      task_(task),
      world_size_(world.task_count()),
      elements_(elements),
      handler_(std::move(handler)),
      ctx_(world.client(task).context(0)),
      world_geom_(world.geometries().world_geometry()) {
  ctx_.set_dispatch(
      kChareDispatchId,
      [this](pami::Context&, const void* header, std::size_t header_bytes, const void* pipe,
             std::size_t pipe_bytes, std::size_t total, pami::Endpoint,
             pami::RecvDescriptor* recv) {
        ChareHeader h;
        assert(header_bytes == sizeof(h));
        (void)header_bytes;
        std::memcpy(&h, header, sizeof(h));
        if (recv == nullptr) {
          Delivery d;
          d.element = h.element;
          d.method = h.method;
          d.payload.assign(static_cast<const std::byte*>(pipe),
                           static_cast<const std::byte*>(pipe) + pipe_bytes);
          local_queue_.push_back(std::move(d));
          return;
        }
        auto buf = std::make_shared<std::vector<std::byte>>(total);
        recv->buffer = buf->data();
        recv->bytes = total;
        recv->on_complete = [this, h, buf] {
          Delivery d;
          d.element = h.element;
          d.method = h.method;
          d.payload = std::move(*buf);
          local_queue_.push_back(std::move(d));
        };
      });
}

void ChareRuntime::send(int dest_element, int method, const void* data, std::size_t bytes) {
  assert(dest_element >= 0 && dest_element < elements_);
  sent_.fetch_add(1, std::memory_order_acq_rel);
  const int dest = home_task(dest_element);
  if (dest == task_) {
    // Local delivery goes straight onto the scheduler queue (Charm++'s
    // same-PE fast path).
    Delivery d;
    d.element = dest_element;
    d.method = method;
    d.payload.assign(static_cast<const std::byte*>(data),
                     static_cast<const std::byte*>(data) + bytes);
    local_queue_.push_back(std::move(d));
    return;
  }
  ChareHeader h;
  h.element = dest_element;
  h.method = method;
  pami::SendParams p;
  p.dispatch = kChareDispatchId;
  p.dest = pami::Endpoint{dest, 0};
  p.header = &h;
  p.header_bytes = sizeof(h);
  p.data = data;
  p.data_bytes = bytes;
  // Large payloads are pulled from our buffer later: hold a completion so
  // quiescence cannot be declared while a pull is outstanding.
  const pami::ClientConfig& cfg = world_.config();
  if (bytes > std::min(cfg.eager_limit, cfg.shm_eager_limit)) {
    send_acks_->fetch_add(1, std::memory_order_acq_rel);
    auto acks = send_acks_;
    p.on_remote_done = [acks] { acks->fetch_sub(1, std::memory_order_acq_rel); };
  }
  hw::Waiter waiter;
  while (ctx_.send(p) == pami::Result::Eagain) waiter.step(ctx_.advance());
}

void ChareRuntime::deliver(Delivery&& d) {
  delivered_.fetch_add(1, std::memory_order_acq_rel);
  ChareSendApi api(this);
  handler_(d.element, d.method, d.payload.data(), d.payload.size(), api);
}

std::uint64_t ChareRuntime::run_to_quiescence() {
  std::uint64_t processed = 0;
  for (;;) {
    // Drain: advance the network and run every queued entry method.
    bool worked = true;
    while (worked) {
      worked = false;
      ctx_.advance();
      while (!local_queue_.empty()) {
        Delivery d = std::move(local_queue_.front());
        local_queue_.pop_front();
        deliver(std::move(d));
        ++processed;
        worked = true;
      }
    }
    if (send_acks_->load(std::memory_order_acquire) > 0) continue;

    // Quiescence detection: two rounds of global (sent - delivered) sums;
    // quiescent only if both rounds agree on zero (the second round
    // catches messages that crossed the first reduction).
    bool quiescent = true;
    for (int round = 0; round < 2 && quiescent; ++round) {
      const std::int64_t local_balance = sent_.load(std::memory_order_acquire) -
                                         delivered_.load(std::memory_order_acquire);
      std::int64_t global_balance = 0;
      pami::coll::allreduce(ctx_, *world_geom_, &local_balance, &global_balance,
                            sizeof(std::int64_t), hw::CombineOp::Add,
                            hw::CombineType::Int64);
      if (global_balance != 0) quiescent = false;
      // Between rounds, drain anything that raced the reduction.
      ctx_.advance();
      if (!local_queue_.empty()) quiescent = false;
    }
    if (quiescent) return processed;
  }
}

}  // namespace pamix::models

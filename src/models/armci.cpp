#include "models/armci.h"

#include <cassert>
#include <cstring>

namespace pamix::models {

namespace {

struct AccHeader {
  std::uint64_t remote_addr = 0;
  std::uint64_t count = 0;
};

void apply_accumulate(const AccHeader& h, const std::int64_t* values) {
  auto* dest = reinterpret_cast<std::int64_t*>(h.remote_addr);
  for (std::uint64_t i = 0; i < h.count; ++i) dest[i] += values[i];
}

}  // namespace

Armci::Armci(pami::ClientWorld& world, int task)
    : world_(world),
      task_(task),
      ctx_(world.client(task).context(0)),
      world_geom_(world.geometries().world_geometry()) {
  // Accumulate handler: executes the addition at the target, which is what
  // makes concurrent accumulates to one location atomic (the target
  // context applies them serially).
  ctx_.set_dispatch(
      kAccDispatchId,
      [](pami::Context&, const void* header, std::size_t header_bytes, const void* pipe,
         std::size_t pipe_bytes, std::size_t total, pami::Endpoint, pami::RecvDescriptor* recv) {
        AccHeader h;
        assert(header_bytes == sizeof(h));
        (void)header_bytes;
        std::memcpy(&h, header, sizeof(h));
        if (recv == nullptr) {
          assert(pipe_bytes == total);
          (void)pipe_bytes;
          apply_accumulate(h, static_cast<const std::int64_t*>(pipe));
          return;
        }
        auto buf = std::make_shared<std::vector<std::int64_t>>(total / sizeof(std::int64_t));
        recv->buffer = buf->data();
        recv->bytes = total;
        recv->on_complete = [h, buf] { apply_accumulate(h, buf->data()); };
      });
}

Armci::~Armci() = default;

int Armci::world_size() const { return static_cast<int>(world_geom_->size()); }

std::shared_ptr<GlobalMemory> Armci::malloc_shared(std::size_t bytes) {
  auto mem = std::make_shared<GlobalMemory>();
  mem->bytes = bytes;
  // Local segment, registered with the node's global VA implicitly (the
  // client registered the whole process at startup).
  auto storage = std::make_shared<std::vector<std::byte>>(bytes);
  // Exchange segment bases: allgather over the world geometry.
  mem->base.resize(world_geom_->size());
  void* mine = storage->data();
  pami::coll::allgather(ctx_, *world_geom_, &mine, mem->base.data(), sizeof(void*));
  // Keep the local storage alive inside the returned structure.
  mem->local_storage = std::move(storage);
  return mem;
}

Armci::NbHandle Armci::nb_put(int dest_task, void* remote, const void* local,
                              std::size_t bytes) {
  NbHandle h;
  h.pending->fetch_add(1, std::memory_order_acq_rel);
  outstanding_->fetch_add(1, std::memory_order_acq_rel);
  pami::PutParams p;
  p.dest = pami::Endpoint{dest_task, 0};
  p.local_addr = local;
  p.remote_addr = remote;
  p.bytes = bytes;
  auto pending = h.pending;
  auto outstanding = outstanding_;
  p.on_remote_done = [pending, outstanding] {
    pending->fetch_sub(1, std::memory_order_acq_rel);
    outstanding->fetch_sub(1, std::memory_order_acq_rel);
  };
  hw::Waiter waiter;
  while (ctx_.put(p) == pami::Result::Eagain) waiter.step(ctx_.advance());
  return h;
}

void Armci::wait(NbHandle& h) {
  hw::Waiter waiter;
  while (h.pending->load(std::memory_order_acquire) > 0) waiter.step(ctx_.advance());
}

void Armci::put(int dest_task, void* remote, const void* local, std::size_t bytes) {
  NbHandle h = nb_put(dest_task, remote, local, bytes);
  wait(h);
}

void Armci::get(int src_task, const void* remote, void* local, std::size_t bytes) {
  bool done = false;
  pami::GetParams p;
  p.dest = pami::Endpoint{src_task, 0};
  p.local_addr = local;
  p.remote_addr = remote;
  p.bytes = bytes;
  p.on_done = [&done] { done = true; };
  hw::Waiter waiter;
  while (ctx_.get(p) == pami::Result::Eagain) waiter.step(ctx_.advance());
  while (!done) waiter.step(ctx_.advance());
}

void Armci::accumulate(int dest_task, std::int64_t* remote, const std::int64_t* local,
                       std::size_t count) {
  AccHeader h;
  h.remote_addr = reinterpret_cast<std::uint64_t>(remote);
  h.count = count;
  outstanding_->fetch_add(1, std::memory_order_acq_rel);
  auto outstanding = outstanding_;
  pami::SendParams p;
  p.dispatch = kAccDispatchId;
  p.dest = pami::Endpoint{dest_task, 0};
  p.header = &h;
  p.header_bytes = sizeof(h);
  p.data = local;
  p.data_bytes = count * sizeof(std::int64_t);
  p.on_remote_done = [outstanding] { outstanding->fetch_sub(1, std::memory_order_acq_rel); };
  hw::Waiter waiter;
  while (ctx_.send(p) == pami::Result::Eagain) waiter.step(ctx_.advance());
}

void Armci::fence_all() {
  hw::Waiter waiter;
  while (outstanding_->load(std::memory_order_acquire) > 0) waiter.step(ctx_.advance());
}

void Armci::barrier() {
  fence_all();
  pami::coll::barrier(ctx_, *world_geom_);
}

}  // namespace pamix::models

#include "runtime/collective_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace pamix::runtime {

namespace {

// The fan-out block: the last contributor combines this many bytes, then
// copies them to every other destination while they are still in L1.
constexpr std::size_t kFanoutBlock = 4096;

// Vectorized at plain -O2 (no -O3, no -march). GCC's -O2 cost model takes
// only loops that need no runtime alias check and no scalar epilogue:
// `__restrict` and ivdep rule out the first (callers never pass partially
// overlapping buffers), the fixed one-cache-line inner loop the second.
template <typename T, typename Fn>
void combine_typed(void* acc, const void* in, std::size_t bytes, Fn&& fn) {
  T* __restrict a = static_cast<T*>(acc);
  const T* __restrict b = static_cast<const T*>(in);
  const std::size_t n = bytes / sizeof(T);
  constexpr std::size_t kLine = 64 / sizeof(T);
  std::size_t i = 0;
  for (; i + kLine <= n; i += kLine) {
#pragma GCC ivdep
    for (std::size_t j = 0; j < kLine; ++j) a[i + j] = fn(a[i + j], b[i + j]);
  }
  for (; i < n; ++i) a[i] = fn(a[i], b[i]);
}

template <typename T>
void combine_op(hw::CombineOp op, void* acc, const void* in, std::size_t bytes) {
  switch (op) {
    case hw::CombineOp::Add:
      combine_typed<T>(acc, in, bytes, [](T a, T b) { return a + b; });
      return;
    case hw::CombineOp::Min:
      combine_typed<T>(acc, in, bytes, [](T a, T b) { return b < a ? b : a; });
      return;
    case hw::CombineOp::Max:
      combine_typed<T>(acc, in, bytes, [](T a, T b) { return a < b ? b : a; });
      return;
    case hw::CombineOp::BitwiseAnd:
    case hw::CombineOp::BitwiseOr:
    case hw::CombineOp::BitwiseXor:
      if constexpr (std::is_integral_v<T>) {
        if (op == hw::CombineOp::BitwiseAnd) {
          combine_typed<T>(acc, in, bytes, [](T a, T b) { return static_cast<T>(a & b); });
        } else if (op == hw::CombineOp::BitwiseOr) {
          combine_typed<T>(acc, in, bytes, [](T a, T b) { return static_cast<T>(a | b); });
        } else {
          combine_typed<T>(acc, in, bytes, [](T a, T b) { return static_cast<T>(a ^ b); });
        }
      } else {
        assert(false && "bitwise combine on floating point");
      }
      return;
  }
}

}  // namespace

void combine_buffers(hw::CombineOp op, hw::CombineType type, void* acc, const void* in,
                     std::size_t bytes) {
  switch (type) {
    case hw::CombineType::Int32:
      combine_op<std::int32_t>(op, acc, in, bytes);
      return;
    case hw::CombineType::Uint32:
      combine_op<std::uint32_t>(op, acc, in, bytes);
      return;
    case hw::CombineType::Int64:
      combine_op<std::int64_t>(op, acc, in, bytes);
      return;
    case hw::CombineType::Uint64:
      combine_op<std::uint64_t>(op, acc, in, bytes);
      return;
    case hw::CombineType::Double:
      combine_op<double>(op, acc, in, bytes);
      return;
  }
}

CollectiveNetworkEngine::CollectiveNetworkEngine(int participants)
    : participants_(participants),
      // The ring is written under mu_ only, so the serialized completions
      // satisfy the single-writer contract.
      obs_(obs::Registry::instance().create("collnet", /*pid=*/-1, /*tid=*/0)),
      dest_store_(kRoundSlots * static_cast<std::size_t>(participants)),
      hook_store_(kRoundSlots * static_cast<std::size_t>(participants)) {
  // Each contributor registers at most one dest and one hook per round,
  // so a slot's stretch of the stores never overflows: no round allocates.
  for (std::size_t i = 0; i < kRoundSlots; ++i) {
    slots_[i].dests = dest_store_.data() + i * static_cast<std::size_t>(participants);
    slots_[i].hooks = hook_store_.data() + i * static_cast<std::size_t>(participants);
  }
}

namespace {

[[noreturn]] void fail(const char* what, std::uint64_t round, std::uint64_t held) {
  std::fprintf(stderr, "CollectiveNetworkEngine: %s (round %llu, slot holds round %llu)\n", what,
               static_cast<unsigned long long>(round), static_cast<unsigned long long>(held));
  std::abort();
}

}  // namespace

CollectiveNetworkEngine::Round& CollectiveNetworkEngine::lock_round(std::uint64_t round) {
  Round& r = slots_[round % kRoundSlots];
  acquire(r.mu);
  hw::Waiter waiter;
  while (r.id != round) {
    if (r.reclaimed.load(std::memory_order_acquire)) {
      if (r.id != kNoRound && r.id > round) {
        fail("contribution to a long-finished round", round, r.id);
      }
      // First contribution: claim the slot from the round before it.
      r.id = round;
      r.arrived = 0;
      r.accum = nullptr;
      r.ndests = 0;
      r.nhooks = 0;
      r.reclaimed.store(false, std::memory_order_relaxed);
      break;
    }
    if (r.arrived < participants_) fail("more than 64 rounds in flight", round, r.id);
    // The previous occupant is complete and its hooks are running: wait.
    r.mu.unlock();
    waiter.pause();
    acquire(r.mu);
  }
  if (r.arrived == participants_) fail("contribution to an already-completed round", round, r.id);
  return r;
}

void CollectiveNetworkEngine::mark_completed(std::uint64_t round) {
  // Slide the window forward over already-completed rounds until `round`
  // fits. Pipelining keeps the in-flight skew to a handful of rounds, so
  // an incomplete round can never be 64 behind the one completing now.
  while (round >= win_base_ + 64 && (win_bits_ & 1)) {
    win_bits_ >>= 1;
    ++win_base_;
  }
  assert(round >= win_base_ && round < win_base_ + 64 && "collective round window overflow");
  win_bits_ |= 1ull << (round - win_base_);
  while (win_bits_ & 1) {  // advance past the completed prefix
    win_bits_ >>= 1;
    ++win_base_;
  }
}

CollectiveNetworkEngine::Ticket CollectiveNetworkEngine::contribute(
    std::uint64_t round, [[maybe_unused]] bool broadcast, bool provides_data, const void* data,
    std::size_t bytes, hw::CombineOp op, hw::CombineType type, void* result_dest,
    CompletionHook hook, void* hook_arg) {
  obs_.pvars.add(obs::Pvar::CollRoundsContributed);
  const auto* in = static_cast<const std::byte*>(data);
  auto* own = static_cast<std::byte*>(result_dest);
  Round& r = lock_round(round);
  const bool last = ++r.arrived == participants_;
  if (hook != nullptr) r.hooks[r.nhooks++] = Hook{hook, hook_arg};
  if (!last) {
    if (provides_data) {
      if (r.accum == nullptr) {
        // First data: its bytes land in this node's own destination,
        // which from now on accumulates the round (no copy in place).
        r.op = op;
        r.type = type;
        r.bytes = bytes;
        if (own == nullptr) {
          r.acc.resize(bytes);  // dest-less contributor: engine-owned copy
          own = r.acc.data();
        }
        if (own != in) std::memcpy(own, in, bytes);
        r.accum = own;
      } else {
        assert(!broadcast && "two roots in one broadcast round");
        assert(r.bytes == bytes && r.op == op && r.type == type &&
               "mismatched collective contributions");
        combine_buffers(op, type, r.accum, in, bytes);
      }
    }
    if (own != nullptr && own != r.accum) r.dests[r.ndests++] = own;
    r.mu.unlock();
    return Ticket{round};
  }
  r.mu.unlock();

  // Last arrival: every other contributor finished its data work under
  // r.mu before arriving, and nobody touches the round again until it is
  // reclaimed below, so the fan-out runs under no lock. The result's
  // source is the accumulator, or this call's own data when nobody
  // supplied any before it (a broadcast root arriving last, or a single
  // participant).
  const bool fold = provides_data && r.accum != nullptr;
  assert((!fold || !broadcast) && "two roots in one broadcast round");
  assert((!fold || (r.bytes == bytes && r.op == op && r.type == type)) &&
         "mismatched collective contributions");
  assert((provides_data || r.accum != nullptr) && "round completed without data");
  const std::byte* src = r.accum != nullptr ? r.accum : in;
  const std::size_t n = r.accum != nullptr ? r.bytes : bytes;
  if (own != nullptr && own != src) r.dests[r.ndests++] = own;
  for (std::size_t off = 0; off < n; off += kFanoutBlock) {
    const std::size_t blk = std::min(kFanoutBlock, n - off);
    if (fold) combine_buffers(op, type, r.accum + off, in + off, blk);
    for (std::size_t i = 0; i < r.ndests; ++i) {
      auto* d = static_cast<std::byte*>(r.dests[i]);
      if (d != src) std::memcpy(d + off, src + off, blk);
    }
  }

  // Hooks run under no engine locks: a hook may immediately re-enter the
  // engine (arm the next pipeline round), which uses a different slot.
  // The round is published to done() and its slot handed back in one
  // engine lock acquisition once they have returned.
  for (std::size_t i = 0; i < r.nhooks; ++i) r.hooks[i].first(r.hooks[i].second);
  acquire(mu_);
  mark_completed(round);
  obs_.trace.record(obs::TraceEv::CollPhase, static_cast<std::uint32_t>(round));
  r.reclaimed.store(true, std::memory_order_release);
  mu_.unlock();
  obs_.pvars.add(obs::Pvar::CollRoundsCompleted);
  return Ticket{round};
}

CollectiveNetworkEngine::Ticket CollectiveNetworkEngine::contribute_reduce(
    std::uint64_t round, const void* data, std::size_t bytes, hw::CombineOp op,
    hw::CombineType type, void* result_dest, CompletionHook hook, void* hook_arg) {
  return contribute(round, /*broadcast=*/false, /*provides_data=*/true, data, bytes, op, type,
                    result_dest, hook, hook_arg);
}

CollectiveNetworkEngine::Ticket CollectiveNetworkEngine::contribute_broadcast(
    std::uint64_t round, bool is_root, const void* data, std::size_t bytes, void* result_dest,
    CompletionHook hook, void* hook_arg) {
  return contribute(round, /*broadcast=*/true, is_root, data, bytes, hw::CombineOp::Add,
                    hw::CombineType::Double, result_dest, hook, hook_arg);
}

bool CollectiveNetworkEngine::done(const Ticket& t) const {
  acquire(mu_);
  bool complete;
  if (t.round < win_base_) {
    complete = true;
  } else if (t.round < win_base_ + 64) {
    complete = (win_bits_ >> (t.round - win_base_)) & 1;
  } else {
    complete = false;  // not even in the completion window yet
  }
  mu_.unlock();
  return complete;
}

}  // namespace pamix::runtime

#include "core/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "obs/pvar.h"

namespace pamix::core {
namespace {

TEST(BufferPool, AcquireRoundsUpToClassCapacity) {
  BufferPool pool;
  Buf b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.capacity(), 128u);
  Buf c = pool.acquire(129);
  EXPECT_EQ(c.capacity(), 512u);
  Buf d = pool.acquire(32768);
  EXPECT_EQ(d.capacity(), 32768u);
}

TEST(BufferPool, ZeroSizeAcquireIsEmpty) {
  BufferPool pool;
  Buf b = pool.acquire(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(BufferPool, ReleaseThenAcquireRecyclesTheBlock) {
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  std::byte* first;
  {
    Buf b = pool.acquire(200);
    first = b.data();
  }  // released on the owner thread → reclaim list
  Buf c = pool.acquire(300);  // same 512 class
  EXPECT_EQ(c.data(), first);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 1u);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolHits), 1u);
}

TEST(BufferPool, OversizeFallsBackToHeap) {
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  Buf b = pool.acquire(kBufMaxPooledBytes + 1);
  EXPECT_EQ(b.size(), kBufMaxPooledBytes + 1);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocHeapFallbacks), 1u);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 0u);
}

TEST(BufferPool, AcquireCopyCarriesBytes) {
  BufferPool pool;
  const char msg[] = "pooled payload";
  Buf b = pool.acquire_copy(msg, sizeof(msg));
  ASSERT_EQ(b.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(b.data(), msg, sizeof(msg)), 0);
}

TEST(BufferPool, CloneIsAnIndependentDeepCopy) {
  BufferPool pool;
  Buf b = pool.acquire_copy("abc", 3);
  Buf c = b.clone();
  b.data()[0] = std::byte{'z'};
  EXPECT_EQ(c.data()[0], std::byte{'a'});
  EXPECT_EQ(c.size(), 3u);
}

TEST(BufferPool, CrossThreadReleaseIsReclaimedByOwner) {
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  Buf b = pool.acquire(64);
  std::byte* block = b.data();
  std::thread t([moved = std::move(b)]() mutable { moved.reset(); });
  t.join();
  // The owner's next acquire steals the reclaim list and reuses the block.
  Buf c = pool.acquire(64);
  EXPECT_EQ(c.data(), block);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolHits), 1u);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 1u);
}

TEST(BufferPool, BufOutlivesItsPool) {
  Buf survivor;
  {
    BufferPool pool;
    survivor = pool.acquire_copy("still here", 10);
  }  // pool destroyed with the block in flight
  EXPECT_EQ(std::memcmp(survivor.data(), "still here", 10), 0);
  survivor.reset();  // releases to heap — must not touch the dead pool
}

TEST(BufferPool, SteadyStateLoopNeverMisses) {
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  { Buf warm = pool.acquire(500); }
  const std::uint64_t misses = pvars.get(obs::Pvar::AllocPoolMisses);
  for (int i = 0; i < 1000; ++i) {
    Buf b = pool.acquire(500);
    b.data()[0] = std::byte{1};
  }
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), misses);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolHits), 1000u);
}

TEST(BufferPool, DistinctLiveBuffersGetDistinctBlocks) {
  BufferPool pool;
  std::vector<Buf> live;
  for (int i = 0; i < 8; ++i) live.push_back(pool.acquire(100));
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      EXPECT_NE(live[i].data(), live[j].data());
    }
  }
}

TEST(BufferPool, ReserveSizesTheClassIncludingBlocksInUse) {
  // reserve() bounds the pool's total, not its free list: blocks still
  // out (a late receiver holding them) count, so the pool's size does not
  // depend on when the releases come back.
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  std::vector<Buf> out;
  for (int i = 0; i < 3; ++i) out.push_back(pool.acquire(400));
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 3u);
  pool.reserve(500, 4);  // owns 3 already: creates one more
  out.push_back(pool.acquire(300));
  pool.reserve(512, 4);  // repeat call: nothing to do
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 3u);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolHits), 1u);
  out.clear();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) out.push_back(pool.acquire(512));
    out.clear();
  }
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 3u) << "four outstanding never miss";
  out.push_back(pool.acquire(100));  // other classes are untouched
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), 4u);
}

TEST(BufferPool, ConcurrentReleasesComeBackExactlyOnce) {
  // The owner keeps acquiring while workers release the blocks it handed
  // them, so reclaim-stack pushes race the owner's exchange-drain. Each
  // block carries the serial of its current lease; a block leased twice
  // at once would have its serial overwritten before the worker checks it.
  obs::PvarSet pvars;
  BufferPool pool(&pvars);
  constexpr int kWorkers = 3;
  constexpr int kPerWorker = 3000;
  struct Inbox {
    std::mutex mu;
    std::vector<Buf> bufs;
  };
  Inbox inbox[kWorkers];
  std::atomic<int> released{0};
  std::atomic<int> bad_serials{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      int done = 0;
      std::vector<Buf> mine;
      while (done < kPerWorker) {
        {
          std::lock_guard<std::mutex> g(inbox[w].mu);
          mine.swap(inbox[w].bufs);
        }
        for (Buf& b : mine) {
          std::uint64_t serial;
          std::memcpy(&serial, b.data(), sizeof(serial));
          if (serial % kWorkers != static_cast<std::uint64_t>(w)) bad_serials.fetch_add(1);
          b.reset();  // cross-thread release: one CAS onto the reclaim stack
          released.fetch_add(1);
          ++done;
        }
        mine.clear();
        std::this_thread::yield();
      }
    });
  }
  constexpr int kMaxLeased = 96;  // bounds the pool, so blocks must recycle
  for (std::uint64_t serial = 0; serial < std::uint64_t{kWorkers} * kPerWorker; ++serial) {
    while (serial - static_cast<std::uint64_t>(released.load()) >= kMaxLeased) {
      std::this_thread::yield();
    }
    Buf b = pool.acquire(8 + serial % 120);  // all in the 128-byte class
    std::memcpy(b.data(), &serial, sizeof(serial));
    Inbox& box = inbox[serial % kWorkers];
    std::lock_guard<std::mutex> g(box.mu);
    box.bufs.push_back(std::move(b));
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(released.load(), kWorkers * kPerWorker);
  EXPECT_EQ(bad_serials.load(), 0);
  const std::uint64_t hits = pvars.get(obs::Pvar::AllocPoolHits);
  const std::uint64_t misses = pvars.get(obs::Pvar::AllocPoolMisses);
  EXPECT_EQ(hits + misses, std::uint64_t{kWorkers} * kPerWorker);
  EXPECT_LE(misses, std::uint64_t{kMaxLeased});

  // Every block the pool ever created is back: re-acquiring `misses`
  // blocks hits every time and never returns an address twice, and the
  // next acquire has to allocate again.
  std::set<const std::byte*> seen;
  std::vector<Buf> all;
  for (std::uint64_t i = 0; i < misses; ++i) {
    all.push_back(pool.acquire(100));
    EXPECT_TRUE(seen.insert(all.back().data()).second) << "block handed out twice";
  }
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), misses) << "a released block never came back";
  Buf fresh = pool.acquire(100);
  EXPECT_EQ(pvars.get(obs::Pvar::AllocPoolMisses), misses + 1)
      << "the pool handed out more blocks than it created";
}

TEST(BufferPool, ReleasesRacingTeardownTakeTheClosedPath) {
  // Releases land before, during and after ~BufferPool swaps the closed
  // sentinel in. Each must either be drained by the teardown or free its
  // block to the heap; under the sanitizers a leak, a double free or a
  // touch of the freed pool core fails the run.
  for (int round = 0; round < 40; ++round) {
    auto pool = std::make_unique<BufferPool>();
    constexpr int kWorkers = 3;
    constexpr int kPerWorker = 64;
    std::vector<std::vector<Buf>> leases(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      for (int i = 0; i < kPerWorker; ++i) {
        leases[static_cast<std::size_t>(w)].push_back(pool->acquire(1 + (i % 3) * 700));
      }
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (Buf& b : leases[static_cast<std::size_t>(w)]) b.reset();
      });
    }
    go.store(true, std::memory_order_release);
    pool.reset();  // races the releases above
    for (std::thread& t : workers) t.join();
  }
}

}  // namespace
}  // namespace pamix::core

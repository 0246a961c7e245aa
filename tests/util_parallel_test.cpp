// ThreadPool / parallel_for / parallel_map semantics: ordered results,
// exception propagation, nested-use handling, shutdown, and the thread
// count knobs.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/parallel.hpp"

namespace dnsbs::util {
namespace {

TEST(ThreadCount, ConfiguredIsAtLeastOne) {
  EXPECT_GE(configured_thread_count(), 1u);
}

TEST(ThreadCount, OverrideAndRestore) {
  set_thread_count(3);
  EXPECT_EQ(configured_thread_count(), 3u);
  set_thread_count(0);
  EXPECT_GE(configured_thread_count(), 1u);
}

TEST(ThreadCount, ParsesOnlyWholeNumbersInRange) {
  // Parsing only: no pool is built from any of these values.
  for (const char* bad : {"", "abc", "12x", "0", "-3", "1025", "99999999999999999999"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_thread_count("1"), std::optional<std::size_t>(1));
  EXPECT_EQ(parse_thread_count("4"), std::optional<std::size_t>(4));
  EXPECT_EQ(parse_thread_count("1024"), std::optional<std::size_t>(1024));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, UsesMultipleThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.for_each_index(256, [&](std::size_t) {
    // Enough work per index that workers overlap; collect who ran.
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_index(100,
                          [&](std::size_t i) {
                            if (i == 77) throw std::runtime_error("worker boom");
                          }),
      std::runtime_error);
  // The pool survives a throwing job and runs the next one.
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RethrowsLowestChunkExceptionFirst) {
  ThreadPool pool(4);
  try {
    pool.for_each_index(4, [&](std::size_t i) {
      throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ThreadPool, RejectsNestedUseFromOwnWorker) {
  ThreadPool pool(4);
  std::atomic<int> rejections{0};
  pool.for_each_index(4, [&](std::size_t) {
    try {
      pool.for_each_index(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      ++rejections;
    }
  });
  // Every chunk — including slot 0, which runs in the submitting thread —
  // must have been rejected rather than deadlocking on the submit lock.
  EXPECT_EQ(rejections.load(), 4);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_each_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, NestedCallDegradesToSerial) {
  std::atomic<int> inner_total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        EXPECT_TRUE(in_parallel_region());
        // Nested parallel_for must run inline instead of deadlocking or
        // throwing: the library composes (parallel crossval reps call
        // parallel RandomForest::fit).
        parallel_for(4, [&](std::size_t) { ++inner_total; }, 4);
      },
      4);
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelMap, ResultsAreOrderedByIndex) {
  const auto out = parallel_map(
      5000, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 5000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SpanOverloadKeepsOrder) {
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 1);
  const auto out = parallel_map(
      std::span<const int>(items), [](const int& v) { return v * 2; }, 3);
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], items[i] * 2);
}

TEST(ParallelMap, IdenticalAcrossThreadCounts) {
  const auto reference = parallel_map(
      1000, [](std::size_t i) { return i * 31 + 7; }, 1);
  for (const std::size_t threads : {2, 3, 4, 8}) {
    EXPECT_EQ(parallel_map(
                  1000, [](std::size_t i) { return i * 31 + 7; }, threads),
              reference)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, SerialWhenOneThread) {
  // With one effective thread nothing should leave the calling thread.
  const auto caller = std::this_thread::get_id();
  parallel_for(
      64, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); }, 1);
}

TEST(ThreadPool, ShutdownJoinsCleanly) {
  // Construction + immediate destruction (idle workers) and destruction
  // right after a job must both join without hanging.
  { ThreadPool pool(4); }
  {
    ThreadPool pool(4);
    std::atomic<int> n{0};
    pool.for_each_index(100, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 100);
  }
}

}  // namespace
}  // namespace dnsbs::util

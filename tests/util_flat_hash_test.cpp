// Property tests for the open-addressing flat containers: random operation
// sequences checked against a std::unordered_map/set oracle, growth
// boundaries, backward-shift deletion, merge_from, and the layout
// determinism the parallel ingest path relies on.
#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"

namespace dnsbs::util {
namespace {

using Map = FlatMap<std::uint64_t, std::uint64_t>;
using Oracle = std::unordered_map<std::uint64_t, std::uint64_t>;

void expect_matches_oracle(const Map& map, const Oracle& oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  // Every oracle entry is findable with the right value...
  for (const auto& [k, v] : oracle) {
    const auto* slot = map.find(k);
    ASSERT_NE(slot, nullptr) << "missing key " << k;
    EXPECT_EQ(slot->second, v) << "key " << k;
    EXPECT_TRUE(map.contains(k));
    EXPECT_EQ(map.at(k), v);
  }
  // ...and iteration yields exactly the oracle's entries (no ghosts).
  std::size_t seen = 0;
  for (const auto& kv : map) {
    const auto it = oracle.find(kv.first);
    ASSERT_NE(it, oracle.end()) << "ghost key " << kv.first;
    EXPECT_EQ(kv.second, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatMap, RandomOpsMatchUnorderedMapOracle) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 20150101ULL}) {
    Rng rng(seed);
    Map map;
    Oracle oracle;
    // Small key universe forces frequent hits, erases of present keys, and
    // repeated growth/shrink churn around the same slots.
    const std::uint64_t universe = 257;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = rng.next() % universe;
      switch (rng.next() % 4) {
        case 0: {  // operator[] upsert
          const std::uint64_t value = rng.next();
          map[key] = value;
          oracle[key] = value;
          break;
        }
        case 1: {  // try_emplace (insert-if-absent)
          const std::uint64_t value = rng.next();
          const auto [slot, inserted] = map.try_emplace(key, value);
          const auto [it, oracle_inserted] = oracle.try_emplace(key, value);
          EXPECT_EQ(inserted, oracle_inserted);
          EXPECT_EQ(slot->second, it->second);
          break;
        }
        case 2: {  // erase
          EXPECT_EQ(map.erase(key), oracle.erase(key) == 1);
          break;
        }
        case 3: {  // lookup of a (maybe absent) key
          const auto* slot = map.find(key);
          const auto it = oracle.find(key);
          ASSERT_EQ(slot != nullptr, it != oracle.end());
          if (slot != nullptr) {
            EXPECT_EQ(slot->second, it->second);
          }
          break;
        }
      }
    }
    expect_matches_oracle(map, oracle);
  }
}

TEST(FlatMap, GrowthBoundariesKeepAllEntries) {
  // Walk straight through several doublings (16 -> 32 -> ... -> 4096 slots)
  // and verify around each 3/4-load boundary.
  Map map;
  Oracle oracle;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    map[i * 0x9e3779b9ULL] = i;
    oracle[i * 0x9e3779b9ULL] = i;
    const bool near_boundary =
        map.capacity() != 0 && (map.size() + 2) * 4 >= map.capacity() * 3;
    if (near_boundary || (i % 512) == 0) expect_matches_oracle(map, oracle);
  }
  expect_matches_oracle(map, oracle);
}

TEST(FlatMap, ReserveAvoidsRehashAndKeepsSemantics) {
  Map map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap, 1024u);
  for (std::uint64_t i = 0; i < 1000; ++i) map[i] = i * 3;
  EXPECT_EQ(map.capacity(), cap) << "reserve(1000) must absorb 1000 inserts";
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(map.at(i), i * 3);
}

TEST(FlatMap, EraseAllViaBackwardShiftLeavesEmptyMap) {
  Rng rng(7);
  Map map;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = rng.next();
    if (map.try_emplace(key, key).second) keys.push_back(key);
  }
  // Erase in a different order than insertion to exercise gap-closing
  // across probe chains.
  for (std::size_t i = 0; i < keys.size(); i += 2) EXPECT_TRUE(map.erase(keys[i]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.contains(keys[i]), i % 2 == 1);
  }
  for (std::size_t i = keys.size(); i-- > 0;) {
    if (i % 2 == 1) {
      EXPECT_TRUE(map.erase(keys[i]));
    }
  }
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMap, MergeFromCombinesCollisionsAndDrainsSource) {
  for (const std::uint64_t seed : {5ULL, 99ULL}) {
    Rng rng(seed);
    Map a, b;
    Oracle oracle;
    for (int i = 0; i < 800; ++i) {
      const std::uint64_t key = rng.next() % 300;  // force overlap
      const std::uint64_t value = rng.next() % 1000;
      if (i % 2 == 0) {
        a[key] = a.contains(key) ? a.at(key) + value : value;
      } else {
        b[key] = b.contains(key) ? b.at(key) + value : value;
      }
      oracle[key] += value;  // the merged expectation: sums per key
    }
    a.merge_from(std::move(b),
                 [](std::uint64_t& mine, std::uint64_t&& theirs) { mine += theirs; });
    EXPECT_TRUE(b.empty());
    expect_matches_oracle(a, oracle);
  }
}

TEST(FlatMap, TryEmplaceDoesNotConsumeArgsOnExistingKey) {
  FlatMap<int, std::vector<int>> map;
  std::vector<int> payload = {1, 2, 3};
  map.try_emplace(1, std::move(payload));
  std::vector<int> second = {9, 9};
  const auto [slot, inserted] = map.try_emplace(1, std::move(second));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(second, (std::vector<int>{9, 9})) << "args consumed without insert";
  EXPECT_EQ(slot->second, (std::vector<int>{1, 2, 3}));
}

TEST(FlatMap, IdenticalOpSequencesIterateIdentically) {
  // The determinism contract: layout is a pure function of the operation
  // sequence, so two independently built maps agree on iteration order.
  // (This is what keeps FP reductions over these containers byte-identical
  // between serial and sharded ingest.)
  const auto build = [] {
    Map map;
    Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng.next() % 700;
      if (rng.next() % 3 == 0) {
        map.erase(key);
      } else {
        map[key] += 1;
      }
    }
    return map;
  };
  const Map a = build();
  const Map b = build();
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second, ib->second);
  }
  EXPECT_EQ(ia == a.end(), ib == b.end());
}

TEST(FlatMap, ForEachSortedVisitsAscending) {
  Rng rng(11);
  Map map;
  for (int i = 0; i < 300; ++i) map[rng.next() % 1000] = i;
  std::vector<std::uint64_t> keys;
  for_each_sorted(map, [&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
  EXPECT_EQ(keys.size(), map.size());
  for (std::size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(FlatSet, RandomOpsMatchUnorderedSetOracle) {
  for (const std::uint64_t seed : {2ULL, 77ULL}) {
    Rng rng(seed);
    FlatSet<std::uint64_t> set;
    std::unordered_set<std::uint64_t> oracle;
    for (int op = 0; op < 10000; ++op) {
      const std::uint64_t key = rng.next() % 200;
      if (rng.next() % 3 == 0) {
        EXPECT_EQ(set.erase(key), oracle.erase(key) == 1);
      } else {
        EXPECT_EQ(set.insert(key), oracle.insert(key).second);
      }
    }
    ASSERT_EQ(set.size(), oracle.size());
    for (const std::uint64_t k : oracle) EXPECT_TRUE(set.contains(k));
    std::size_t seen = 0;
    for (const std::uint64_t k : set) {
      EXPECT_TRUE(oracle.count(k) == 1);
      ++seen;
    }
    EXPECT_EQ(seen, oracle.size());
    const auto sorted = sorted_keys(set);
    EXPECT_EQ(sorted.size(), oracle.size());
    for (std::size_t i = 1; i < sorted.size(); ++i) EXPECT_LT(sorted[i - 1], sorted[i]);
  }
}

TEST(FlatSet, MergeFromKeepsUnion) {
  FlatSet<std::uint64_t> a, b;
  for (std::uint64_t i = 0; i < 100; ++i) a.insert(i);
  for (std::uint64_t i = 50; i < 150; ++i) b.insert(i);
  a.merge_from(std::move(b));
  EXPECT_EQ(a.size(), 150u);
  EXPECT_TRUE(b.empty());
  for (std::uint64_t i = 0; i < 150; ++i) EXPECT_TRUE(a.contains(i));
}

TEST(FlatMap, StringKeysWork) {
  // Non-integral keys go through std::hash then the SplitMix64 finisher.
  FlatMap<std::string, int> map;
  std::unordered_map<std::string, int> oracle;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.next() % 400);
    map[key] = i;
    oracle[key] = i;
  }
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) EXPECT_EQ(map.at(k), v);
}

}  // namespace
}  // namespace dnsbs::util

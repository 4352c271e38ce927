#include "src/atropos/dense_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace atropos {
namespace {

constexpr uint32_t kNotFound = DenseKeyIndex::kNotFound;

// Every key of `universe` resolves as the reference map says.
void ExpectMatches(const DenseKeyIndex& index,
                   const std::unordered_map<uint64_t, uint32_t>& ref,
                   const std::vector<uint64_t>& universe) {
  ASSERT_EQ(index.size(), ref.size());
  for (uint64_t key : universe) {
    auto it = ref.find(key);
    EXPECT_EQ(index.Find(key), it == ref.end() ? kNotFound : it->second) << "key " << key;
  }
}

// `n` distinct keys whose probe starts at `home` in a table of `capacity`,
// as the table itself places them.
std::vector<uint64_t> KeysHomedAt(size_t home, size_t capacity, size_t n, uint64_t first = 0) {
  const DenseKeyIndex table(capacity);
  std::vector<uint64_t> keys;
  for (uint64_t k = first; keys.size() < n; k++) {
    if (table.Home(k) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

// Random Put / FindOrInsert / Erase / Find over a small key universe (so
// most operations hit a live key and chains collide), checked against
// std::unordered_map after every operation. The population swings between
// empty and several hundred keys, so the table grows from 16 cells several
// times past the 3/4 load.
TEST(DenseKeyIndexTest, RandomOperationsMatchUnorderedMap) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    DenseKeyIndex index;
    std::unordered_map<uint64_t, uint32_t> ref;
    std::vector<uint64_t> universe;
    for (uint64_t k = 0; k < 600; k++) {
      universe.push_back(rng.NextBernoulli(0.1) ? k : rng.NextUint64());
    }
    universe[0] = 0;  // key 0 is legal
    size_t max_capacity = index.capacity();
    for (int op = 0; op < 6000; op++) {
      // Phases of mostly-insert and mostly-erase drive the population up
      // and back down.
      const bool growing = (op / 1500) % 2 == 0;
      const uint64_t key = universe[rng.NextBounded(universe.size())];
      const uint32_t slot = static_cast<uint32_t>(rng.NextBounded(1u << 20));
      const uint64_t dice = rng.NextBounded(10);
      auto it = ref.find(key);
      if (dice < (growing ? 4u : 1u)) {
        index.Put(key, slot);
        ref[key] = slot;
      } else if (dice < (growing ? 8u : 2u)) {
        uint32_t& cell = index.FindOrInsert(key);
        if (it == ref.end()) {
          EXPECT_EQ(cell, kNotFound);
          cell = slot;
          ref[key] = slot;
        } else {
          EXPECT_EQ(cell, it->second);
        }
      } else {
        const uint32_t erased = index.Erase(key);
        if (it == ref.end()) {
          EXPECT_EQ(erased, kNotFound);
        } else {
          EXPECT_EQ(erased, it->second);
          ref.erase(it);
        }
      }
      EXPECT_LE(index.size() * 4, index.capacity() * 3);
      max_capacity = std::max(max_capacity, index.capacity());
      if (op % 64 == 0) {
        ExpectMatches(index, ref, universe);
      }
    }
    ExpectMatches(index, ref, universe);
    EXPECT_GE(max_capacity, 512u);  // grew several times from 16 cells
  }
}

// Growth past the 3/4 load keeps every mapping: the table doubles on the
// insert that would exceed 3/4 and not before.
TEST(DenseKeyIndexTest, GrowthPastThreeQuartersKeepsEveryKey) {
  DenseKeyIndex index;
  ASSERT_EQ(index.capacity(), 16u);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 12; k++) {
    index.Put(k * 7919, static_cast<uint32_t>(k));
    keys.push_back(k * 7919);
  }
  EXPECT_EQ(index.capacity(), 16u);  // 12 of 16 cells: exactly 3/4
  index.FindOrInsert(12 * 7919) = 12;
  keys.push_back(12 * 7919);
  EXPECT_EQ(index.capacity(), 32u);
  for (uint64_t k = 0; k < keys.size(); k++) {
    EXPECT_EQ(index.Find(keys[k]), k);
  }
}

// A chain that starts in the last cell wraps to cells 0, 1, ...; erasing
// from it must shift the wrapped members back across the table's end. Keys
// homed at cell 0 share the wrapped cells but may not move before their home.
TEST(DenseKeyIndexTest, BackwardShiftAcrossTheWrapAround) {
  constexpr size_t kCap = 16;
  const std::vector<uint64_t> tail = KeysHomedAt(kCap - 1, kCap, 3);
  const std::vector<uint64_t> zero = KeysHomedAt(0, kCap, 2);
  // Every order of erasing one of the five from the full chain.
  const std::vector<uint64_t> chain = {tail[0], tail[1], zero[0], tail[2], zero[1]};
  for (size_t victim = 0; victim < chain.size(); victim++) {
    SCOPED_TRACE("erase chain[" + std::to_string(victim) + "]");
    DenseKeyIndex index;
    ASSERT_EQ(index.capacity(), kCap);
    std::unordered_map<uint64_t, uint32_t> ref;
    for (size_t i = 0; i < chain.size(); i++) {
      index.Put(chain[i], static_cast<uint32_t>(100 + i));
      ref[chain[i]] = static_cast<uint32_t>(100 + i);
    }
    EXPECT_EQ(index.Erase(chain[victim]), 100 + victim);
    ref.erase(chain[victim]);
    EXPECT_EQ(index.Erase(chain[victim]), kNotFound);
    ExpectMatches(index, ref, chain);
    // Drain the rest one by one; each erase returns its slot.
    for (size_t i = 0; i < chain.size(); i++) {
      if (i == victim) {
        continue;
      }
      EXPECT_EQ(index.Erase(chain[i]), 100 + i);
      ref.erase(chain[i]);
      ExpectMatches(index, ref, chain);
    }
    EXPECT_EQ(index.size(), 0u);
  }
}

// A stream of requests whose keys are issued by one producer: request `seq`
// has key `key_of(seq)`, and at most `in_flight` requests are live at once.
struct KeyStream {
  std::function<uint64_t(uint64_t)> key_of;
  uint64_t in_flight;
};

// Slides every stream's window of live keys through one index, `rounds`
// times a burst of `burst` requests per stream in turn: each request admits
// its key (FindOrInsert of an absent key) and retires the stream's oldest
// (FindOrInsert and Find of the live key, then Erase); the streams drain at
// the end. After every operation the index and std::unordered_map agree on
// the operated key and on every live key. Returns how often the table grew.
size_t SlideWindows(const std::vector<KeyStream>& streams, uint64_t rounds, uint64_t burst) {
  DenseKeyIndex index;
  std::unordered_map<uint64_t, uint32_t> ref;
  size_t grows = 0;
  size_t capacity = index.capacity();
  uint32_t next_slot = 0;
  auto check = [&](uint64_t key) {
    ASSERT_EQ(index.size(), ref.size());
    auto it = ref.find(key);
    ASSERT_EQ(index.Find(key), it == ref.end() ? kNotFound : it->second) << "key " << key;
    for (const auto& [live, slot] : ref) {
      ASSERT_EQ(index.Find(live), slot) << "live key " << live;
    }
    if (index.capacity() != capacity) {
      grows++;
      capacity = index.capacity();
    }
  };
  auto admit = [&](uint64_t key) {
    uint32_t& cell = index.FindOrInsert(key);
    ASSERT_EQ(cell, kNotFound) << "key " << key;
    cell = next_slot;
    ref[key] = next_slot++;
    check(key);
  };
  auto retire = [&](uint64_t key) {
    const uint32_t slot = ref.at(key);
    ASSERT_EQ(index.FindOrInsert(key), slot) << "key " << key;
    check(key);
    ASSERT_EQ(index.Erase(key), slot) << "key " << key;
    ref.erase(key);
    check(key);
    ASSERT_EQ(index.Erase(key), kNotFound) << "key " << key;
  };
  std::vector<uint64_t> next(streams.size(), 0);
  for (uint64_t round = 0; round < rounds; round++) {
    for (size_t s = 0; s < streams.size(); s++) {
      for (uint64_t b = 0; b < burst; b++) {
        const uint64_t seq = next[s]++;
        admit(streams[s].key_of(seq));
        if (seq >= streams[s].in_flight) {
          retire(streams[s].key_of(seq - streams[s].in_flight));
        }
        if (testing::Test::HasFatalFailure()) {
          return grows;
        }
      }
    }
  }
  for (size_t s = 0; s < streams.size(); s++) {
    const uint64_t first = next[s] > streams[s].in_flight ? next[s] - streams[s].in_flight : 0;
    for (uint64_t seq = first; seq < next[s]; seq++) {
      retire(streams[s].key_of(seq));
      if (testing::Test::HasFatalFailure()) {
        return grows;
      }
    }
  }
  EXPECT_EQ(index.size(), 0u);
  return grows;
}

// The key layouts the registries are fed, slid through the index across
// several growths. Fibonacci homes put structured streams into shared cells
// (the ingest streams below share a home for about a third of their live
// keys at 512 cells), which stresses backward-shift deletion differently
// from random keys.
TEST(DenseKeyIndexTest, IssuedKeyLayoutsMatchUnorderedMap) {
  // perfbench ingest: three producers, key ((p + 1) << 40) | request, 100
  // requests in flight per producer.
  std::vector<KeyStream> ingest;
  for (uint64_t p = 0; p < 3; p++) {
    ingest.push_back({[p](uint64_t r) { return ((p + 1) << 40) | r; }, 100});
  }
  EXPECT_GE(SlideWindows(ingest, 100, 8), 2u);

  // Plain sequential ids (task ids, simulated request keys).
  EXPECT_GE(SlideWindows({{[](uint64_t r) { return r + 1; }, 300}}, 120, 8), 2u);

  // Ids tagged in the high word, as live request keys carry their type:
  // ((type + 1) << 48) | seq.
  std::vector<KeyStream> tagged;
  for (uint64_t type = 0; type < 4; type++) {
    tagged.push_back({[type](uint64_t r) { return ((type + 1) << 48) | r; }, 80});
  }
  EXPECT_GE(SlideWindows(tagged, 100, 4), 2u);

  // Degenerate: keys that differ only in their top 4 bits (12 of the 16
  // live at once, so they recur), riding on a sequential stream that grows
  // the table under them.
  const std::vector<KeyStream> degenerate = {
      {[](uint64_t r) { return ((r % 16) << 60) | 0x0123456789abcdefull; }, 12},
      {[](uint64_t r) { return r; }, 300},
  };
  EXPECT_GE(SlideWindows(degenerate, 120, 6), 2u);
}

// FindOrInsert on a present key returns its cell, and writing the cell
// remaps the key; on an absent key it inserts and returns kNotFound.
TEST(DenseKeyIndexTest, FindOrInsertReturnsTheKeysCell) {
  DenseKeyIndex index;
  uint32_t& fresh = index.FindOrInsert(0);
  EXPECT_EQ(fresh, kNotFound);
  fresh = 3;
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(0), 3u);
  uint32_t& again = index.FindOrInsert(0);
  EXPECT_EQ(again, 3u);
  again = 9;
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(0), 9u);
  EXPECT_EQ(index.Erase(0), 9u);
  EXPECT_EQ(index.Erase(0), kNotFound);
  EXPECT_EQ(index.Find(0), kNotFound);
}

}  // namespace
}  // namespace atropos

// Differential/property harness for util::FlatMap / util::FlatSet
// (util/flat_table.hpp): random operation sequences checked against a
// std::unordered_map oracle, batched-vs-scalar equivalence, the
// deterministic-iteration contract, adversarial all-colliding keys, and
// concurrent sharded reads (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_table.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace longtail::util {
namespace {

class FlatTableTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_global_threads(ThreadPool::default_threads());
    metrics::set_enabled(false);
  }
};

// Drives the same random op sequence (insert with duplicate-prone keys,
// find) into a FlatMap and a std::unordered_map oracle, then checks they
// agree exactly.
void run_differential(std::size_t target_size, std::uint64_t seed) {
  FlatMap<std::uint64_t, std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(seed);
  // Key universe ~2x the target size forces duplicate inserts at every
  // load factor on the way up.
  const std::uint64_t universe = 2 * target_size + 16;
  const std::size_t ops = 8 * target_size + 64;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t key = rng() % universe;
    switch (rng() % 2) {
      case 0: {  // insert
        const std::uint64_t value = rng();
        const auto [slot, fresh] = table.try_emplace(key, value);
        const auto [it, ofresh] = oracle.try_emplace(key, value);
        ASSERT_EQ(fresh, ofresh) << "op " << op << " key " << key;
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 1: {  // find
        const std::uint64_t* found = table.find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end())
            << "op " << op << " key " << key;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
  }

  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
  // Iteration covers exactly the oracle's keys, each once.
  std::size_t seen = 0;
  for (const auto& [key, value] : table) {
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "phantom key " << key;
    EXPECT_EQ(value, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
}

TEST_F(FlatTableTest, DifferentialAgainstUnorderedMapAcrossSizes) {
  std::uint64_t seed = 0x1009;
  for (const std::size_t size : {0u, 1u, 7u, 1000u}) {
    SCOPED_TRACE(size);
    run_differential(size, seed++);
  }
}

TEST_F(FlatTableTest, Differential100kKeys) { run_differential(100'000, 7); }

TEST_F(FlatTableTest, DifferentialStringViewKeys) {
  // Interner-shaped keys exercise the FNV string path of FlatHash.
  std::vector<std::string> names;
  names.reserve(2000);
  for (int i = 0; i < 2000; ++i)
    names.push_back("signer-" + std::to_string(i % 1300));
  FlatMap<std::string_view, std::uint32_t> table;
  std::unordered_map<std::string_view, std::uint32_t> oracle;
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(table.try_emplace(names[i], i).second,
              oracle.try_emplace(names[i], i).second)
        << names[i];
  }
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [key, id] : oracle) {
    const std::uint32_t* found = table.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, id);
  }
  EXPECT_EQ(table.find("signer-never-seen"), nullptr);
}

TEST_F(FlatTableTest, BatchedFindMatchesScalar) {
  FlatMap<std::uint64_t, std::uint64_t> table;
  std::mt19937_64 rng(11);
  for (std::size_t i = 0; i < 50'000; ++i) table.try_emplace(rng() % 80'000, i);

  std::vector<std::uint64_t> probes;
  for (std::size_t i = 0; i < 10'000; ++i) probes.push_back(rng() % 120'000);
  std::vector<const std::uint64_t*> batched(probes.size());
  const std::size_t hits = table.find_batch(probes, batched);

  std::size_t scalar_hits = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::uint64_t* scalar = table.find(probes[i]);
    ASSERT_EQ(batched[i], scalar) << "probe " << i << " key " << probes[i];
    scalar_hits += scalar != nullptr;
  }
  EXPECT_EQ(hits, scalar_hits);
}

TEST_F(FlatTableTest, BatchedInsertMatchesSequential) {
  std::mt19937_64 rng(12);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < 30'000; ++i) {
    keys.push_back(rng() % 20'000);  // plenty of intra-batch duplicates
    values.push_back(rng());
  }

  FlatMap<std::uint64_t, std::uint64_t> batched;
  std::vector<std::uint8_t> fresh(keys.size());
  batched.insert_batch(keys, values, fresh);

  FlatMap<std::uint64_t, std::uint64_t> sequential;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sequential.try_emplace(keys[i], values[i]).second,
              fresh[i] != 0)
        << i;
  }

  // Same content AND the same iteration sequence: batching must not
  // change the insertion order the determinism contract exposes.
  ASSERT_EQ(batched.size(), sequential.size());
  auto b = batched.begin();
  for (const auto& [key, value] : sequential) {
    ASSERT_EQ(b->key, key);
    ASSERT_EQ(b->value, value);
    ++b;
  }
}

TEST_F(FlatTableTest, IterationIsInsertionOrderAndReplayable) {
  // Two tables fed the same sequence iterate identically.
  auto build = [] {
    FlatMap<std::uint32_t, std::uint32_t> t;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 5000; ++i) t.try_emplace(rng() % 3000, i);
    return t;
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.size(), b.size());
  auto bi = b.begin();
  for (const auto& [key, value] : a) {
    ASSERT_EQ(key, bi->key);
    ASSERT_EQ(value, bi->value);
    ++bi;
  }

  // Pure insertion keeps exact insertion order.
  FlatSet<std::uint32_t> set;
  for (std::uint32_t k : {9u, 4u, 7u, 4u, 1u, 9u, 0u}) set.insert(k);
  const std::vector<std::uint32_t> order(set.begin(), set.end());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{9, 4, 7, 1, 0}));
}

// Worst adversarial input: every key hashes to the same partition, the
// same bucket, and the same fragment, so every probe degenerates into one
// linear chain with mandatory full key compares.
struct CollidingHash {
  std::uint64_t operator()(const std::uint64_t&) const noexcept {
    return 0x0123'4567'89AB'CDEFull;
  }
};

TEST_F(FlatTableTest, AllCollidingKeysStayCorrect) {
  FlatMap<std::uint64_t, std::uint64_t, CollidingHash> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(21);
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t key = rng() % 1500;
    const std::uint64_t value = rng();
    ASSERT_EQ(table.try_emplace(key, value).second,
              oracle.try_emplace(key, value).second);
  }
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value);
  }
  // Batched path survives the pile-up too.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 1500; ++k) keys.push_back(k);
  std::vector<const std::uint64_t*> out(keys.size());
  EXPECT_EQ(table.find_batch(keys, out), oracle.size());
}

TEST_F(FlatTableTest, RehashCounterTracksGrowth) {
  metrics::set_enabled(true);
  auto& rehashes = metrics::counter("util.flat_table.rehashes");
  const std::uint64_t before = rehashes.value();
  FlatMap<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t k = 0; k < 100'000; ++k) table.try_emplace(k, k);
  EXPECT_GT(rehashes.value(), before);
  for (std::uint64_t k = 0; k < 100'000; ++k)
    ASSERT_NE(table.find(k), nullptr);
}

TEST_F(FlatTableTest, ConcurrentShardedReadsAreRaceFree) {
  // Concurrent const probes (scalar and batched) from many threads — the
  // read-side contract every migrated parallel scan relies on. TSan runs
  // this in CI at threads {1,2,8}.
  FlatMap<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t k = 0; k < 64 * 2000; ++k) table.try_emplace(k, k * 3);

  for (const unsigned threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    std::vector<std::uint64_t> bad(64, 0);
    parallel_for(64, [&](std::size_t chunk) {
      std::uint64_t local_bad = 0;
      const std::uint64_t begin = chunk * 2000;
      std::vector<std::uint64_t> keys;
      for (std::uint64_t k = begin; k < begin + 2000; ++k) keys.push_back(k);
      std::vector<const std::uint64_t*> out(keys.size());
      table.find_batch(keys, out);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t* scalar = table.find(keys[i]);
        if (scalar == nullptr || scalar != out[i] || *scalar != keys[i] * 3)
          ++local_bad;
      }
      bad[chunk] = local_bad;
    });
    for (const std::uint64_t b : bad) ASSERT_EQ(b, 0u) << threads;
  }
}

TEST_F(FlatTableTest, ClearAndReserveReuse) {
  FlatMap<std::uint32_t, std::uint32_t> table;
  table.reserve(10'000);
  for (std::uint32_t k = 0; k < 10'000; ++k) table.try_emplace(k, k);
  EXPECT_EQ(table.size(), 10'000u);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(5), nullptr);
  for (std::uint32_t k = 0; k < 100; ++k) table.try_emplace(k, k + 1);
  EXPECT_EQ(table.size(), 100u);
  const std::uint32_t* v = table.find(42);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 43u);
}

TEST_F(FlatTableTest, FlatSetBatchedInsertDedup) {
  FlatSet<std::uint64_t> set{5, 6};
  std::vector<std::uint64_t> keys = {1, 5, 1, 2, 6, 2, 3};
  std::vector<std::uint8_t> fresh(keys.size());
  set.insert_batch(keys, fresh);
  EXPECT_EQ(std::vector<std::uint8_t>(fresh.begin(), fresh.end()),
            (std::vector<std::uint8_t>{1, 0, 0, 1, 0, 0, 1}));
  EXPECT_EQ(set.size(), 5u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.count(1), 1u);
  EXPECT_EQ(set.count(9), 0u);
}

TEST_F(FlatTableTest, IdAndEnumKeysUseRawHash) {
  // Id-wrapper keys (the .raw() FlatHash path) — the shape every
  // whitelist / policy set uses.
  struct FakeId {
    std::uint32_t v;
    [[nodiscard]] std::uint32_t raw() const noexcept { return v; }
    bool operator==(const FakeId&) const = default;
  };
  FlatSet<FakeId> ids;
  for (std::uint32_t i = 0; i < 1000; ++i) ids.insert(FakeId{i * 2});
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_TRUE(ids.contains(FakeId{42}));
  EXPECT_FALSE(ids.contains(FakeId{43}));
}

}  // namespace
}  // namespace longtail::util

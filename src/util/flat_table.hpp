// Partitioned open-addressing hash table with software-prefetch batched
// probes (DRAMHiT / CASHT++-style), tuned for the pipeline's hot point
// lookups: retransmit dedup, whitelist and reputation probes, interner
// indexing, and the chain-matching fixup.
//
// Design:
//   * `FlatMap<K, V>` / `FlatSet<K>` keep entries in one dense vector in
//     insertion order and probe through per-partition open-addressing
//     index arrays of 8-byte slots {entry index, 32-bit hash fragment}.
//     A 64-byte cache line holds a group of 8 slots, so a probe walk
//     touches one line in the common case and the fragment check makes
//     entry loads (the second cache miss) almost always true hits.
//   * The index is split into 2^kPartitionBits fixed partitions selected
//     by the hash's top bits — partitioned rehash (small pauses, no
//     global stop) and safe concurrent *read* sharding; the partition
//     count never depends on the thread count, so probe statistics are
//     deterministic.
//   * Batched API: `find_batch` / `insert_batch` process keys in windows
//     of kBatchWidth, issuing `__builtin_prefetch` for every window
//     member's index group (and candidate entry line) before any probe
//     resolves, hiding the cache-miss latency that dominates point
//     lookups on large tables.
//   * The tables only grow: there is no erase, so every index slot is
//     live or empty and a rehash is a straight redistribution.
//   * Iteration order is the insertion order — a pure function of the
//     operation sequence, never of hashing, addresses, or scheduling.
//     Dataset fingerprints and table stdout stay byte-identical across
//     reruns, platforms, and thread counts.
//
// Instrumented with metrics counters (enabled runs only):
//   util.flat_table.probes            slots inspected by finds/inserts
//   util.flat_table.prefetch_batches  batched-API invocations
//   util.flat_table.rehashes          partition rehashes
//
// References returned by find/operator[]/try_emplace are invalidated by
// any insert (the dense vector reallocates) — unlike std::unordered_map,
// do not hold them across inserts. Concurrent const reads are safe; any
// mutation requires exclusive access.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace longtail::util {

// Default hasher: avalanche-mixes integral keys, `.raw()` id wrappers,
// and FNV-1a digests of string-like keys into a full 64-bit value (the
// table consumes the top bits for partition selection, the middle for the
// fragment, and the bottom for the bucket, so the mix must be full-width).
template <typename K>
struct FlatHash {
  [[nodiscard]] std::uint64_t operator()(const K& key) const noexcept {
    if constexpr (std::is_integral_v<K>) {
      return mix64(static_cast<std::uint64_t>(key));
    } else if constexpr (requires { key.raw(); }) {
      return mix64(static_cast<std::uint64_t>(key.raw()));
    } else if constexpr (std::is_convertible_v<const K&, std::string_view>) {
      return mix64(fnv1a64(std::string_view(key)));
    } else {
      static_assert(sizeof(K) == 0,
                    "FlatHash: provide a specialization for this key type");
      return 0;
    }
  }
};

namespace detail_flat {

// One index slot: which dense entry lives here plus a 32-bit fragment of
// its hash. The fragment is compared before the entry is ever loaded, so
// a probe only pays the second cache miss on a (near-certain) true hit.
struct Slot {
  std::uint32_t index;
  std::uint32_t fragment;
};

inline constexpr std::uint32_t kNilSlot = 0xFFFF'FFFFu;

inline void count_probes(std::uint64_t probes) noexcept {
  LONGTAIL_METRIC_COUNT("util.flat_table.probes", probes);
}

inline void count_batch() noexcept {
  LONGTAIL_METRIC_COUNT("util.flat_table.prefetch_batches", 1);
}

inline void count_rehash() noexcept {
  LONGTAIL_METRIC_COUNT("util.flat_table.rehashes", 1);
}

}  // namespace detail_flat

template <typename K, typename V, typename Hash = FlatHash<K>,
          unsigned kPartitionBits = 3>
class FlatMap {
 public:
  static constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;
  // Keys per software-pipelined window of the batched API: enough
  // in-flight prefetches to cover DRAM latency, small enough to stay in
  // registers/L1.
  static constexpr std::size_t kBatchWidth = 16;

  struct Entry {
    K key;
    [[no_unique_address]] V value;
  };

  using const_iterator = typename std::vector<Entry>::const_iterator;
  using iterator = typename std::vector<Entry>::iterator;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  // Insertion-order iteration. Mutable iteration may change values,
  // never keys.
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }

  void clear() noexcept {
    for (Partition& p : parts_) {
      p.slots.clear();
      p.mask = 0;
      p.used = 0;
    }
    entries_.clear();
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    // Per-partition capacity for an even spread at the target load.
    const std::size_t per = (n + kPartitions - 1) / kPartitions;
    for (Partition& p : parts_) grow_to(p, slots_for(per));
  }

  [[nodiscard]] const V* find(const K& key) const {
    const std::uint64_t h = hash_(key);
    const Partition& p = parts_[h >> kPartShift];
    if (p.slots.empty()) return nullptr;
    std::size_t i = h & p.mask;
    const std::uint32_t frag = static_cast<std::uint32_t>(h >> 32);
    std::uint64_t probes = 0;
    for (;;) {
      ++probes;
      const detail_flat::Slot s = p.slots[i];
      if (s.index == detail_flat::kNilSlot) break;
      if (s.fragment == frag && entries_[s.index].key == key) {
        detail_flat::count_probes(probes);
        return &entries_[s.index].value;
      }
      i = (i + 1) & p.mask;
    }
    detail_flat::count_probes(probes);
    return nullptr;
  }
  [[nodiscard]] V* find(const K& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != nullptr;
  }

  // Inserts {key, V(args...)} unless the key is present. Returns
  // {pointer to the (existing or new) value, inserted?}. Like
  // std::unordered_map::try_emplace, `args` are only consumed when the
  // insert actually happens.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    return emplace_hashed(hash_(key), key, std::forward<Args>(args)...);
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  // Batched lookup: out[i] = found value pointer or nullptr; returns the
  // hit count. Keys are processed in kBatchWidth windows: hashes and
  // index-group prefetches are issued for the whole window first, then
  // probes resolve to candidate entries (prefetching each candidate
  // line), then keys are verified — three pipeline stages per window, so
  // no probe waits on a cold cache line it could have announced earlier.
  std::size_t find_batch(std::span<const K> keys,
                         std::span<const V*> out) const {
    assert(out.size() >= keys.size());
    detail_flat::count_batch();
    std::size_t found = 0;
    std::array<std::uint64_t, kBatchWidth> hs;
    std::array<std::uint32_t, kBatchWidth> cand;
    std::array<std::uint32_t, kBatchWidth> slot;
    for (std::size_t base = 0; base < keys.size(); base += kBatchWidth) {
      const std::size_t n = std::min(kBatchWidth, keys.size() - base);
      // Stage 1: hash + index-group prefetch for the whole window.
      for (std::size_t j = 0; j < n; ++j) {
        hs[j] = hash_(keys[base + j]);
        const Partition& p = parts_[hs[j] >> kPartShift];
        if (!p.slots.empty())
          __builtin_prefetch(p.slots.data() + (hs[j] & p.mask), 0, 1);
      }
      // Stage 2: probe to the first fragment match; prefetch its entry.
      std::uint64_t probes = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const Partition& p = parts_[hs[j] >> kPartShift];
        cand[j] = detail_flat::kNilSlot;
        if (p.slots.empty()) continue;
        const std::uint32_t frag = static_cast<std::uint32_t>(hs[j] >> 32);
        std::size_t i = hs[j] & p.mask;
        for (;;) {
          ++probes;
          const detail_flat::Slot s = p.slots[i];
          if (s.index == detail_flat::kNilSlot) break;
          if (s.fragment == frag) {
            cand[j] = s.index;
            slot[j] = static_cast<std::uint32_t>(i);
            __builtin_prefetch(entries_.data() + s.index, 0, 1);
            break;
          }
          i = (i + 1) & p.mask;
        }
      }
      // Stage 3: verify candidates; fragment collisions (rare) fall back
      // to continuing the scalar probe walk past the candidate slot.
      for (std::size_t j = 0; j < n; ++j) {
        const V** slot_out = &out[base + j];
        *slot_out = nullptr;
        if (cand[j] == detail_flat::kNilSlot) continue;
        if (entries_[cand[j]].key == keys[base + j]) {
          *slot_out = &entries_[cand[j]].value;
          ++found;
          continue;
        }
        const Partition& p = parts_[hs[j] >> kPartShift];
        const std::uint32_t frag = static_cast<std::uint32_t>(hs[j] >> 32);
        std::size_t i = (slot[j] + 1) & p.mask;
        for (;;) {
          ++probes;
          const detail_flat::Slot s = p.slots[i];
          if (s.index == detail_flat::kNilSlot) break;
          if (s.fragment == frag && entries_[s.index].key == keys[base + j]) {
            *slot_out = &entries_[s.index].value;
            ++found;
            break;
          }
          i = (i + 1) & p.mask;
        }
      }
      detail_flat::count_probes(probes);
    }
    return found;
  }

  // Batched insert: window-prefetches like find_batch, then applies the
  // inserts in key order, so duplicates inside the batch resolve exactly
  // as sequential try_emplace calls would. When `inserted` is non-empty,
  // inserted[i] records whether key i created a new entry.
  void insert_batch(std::span<const K> keys, std::span<const V> values,
                    std::span<std::uint8_t> inserted = {}) {
    assert(values.size() >= keys.size());
    assert(inserted.empty() || inserted.size() >= keys.size());
    detail_flat::count_batch();
    std::array<std::uint64_t, kBatchWidth> hs;
    for (std::size_t base = 0; base < keys.size(); base += kBatchWidth) {
      const std::size_t n = std::min(kBatchWidth, keys.size() - base);
      for (std::size_t j = 0; j < n; ++j) {
        hs[j] = hash_(keys[base + j]);
        const Partition& p = parts_[hs[j] >> kPartShift];
        if (!p.slots.empty())
          __builtin_prefetch(p.slots.data() + (hs[j] & p.mask), 1, 1);
      }
      for (std::size_t j = 0; j < n; ++j) {
        const bool fresh =
            emplace_hashed(hs[j], keys[base + j], values[base + j]).second;
        if (!inserted.empty()) inserted[base + j] = fresh ? 1 : 0;
      }
    }
  }

 private:
  static constexpr unsigned kPartShift = 64 - kPartitionBits;
  static constexpr std::size_t kMinSlots = 16;

  struct Partition {
    std::vector<detail_flat::Slot> slots;  // power-of-two or empty
    std::size_t mask = 0;
    std::size_t used = 0;
  };

  // Smallest power-of-two slot count that keeps `n` entries at or under
  // ~0.75 load.
  static std::size_t slots_for(std::size_t n) {
    std::size_t cap = kMinSlots;
    while (n * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  void grow_to(Partition& p, std::size_t new_cap) {
    if (new_cap <= p.slots.size()) return;
    if (!p.slots.empty()) detail_flat::count_rehash();
    std::vector<detail_flat::Slot> old = std::move(p.slots);
    p.slots.assign(new_cap, {detail_flat::kNilSlot, 0});
    p.mask = new_cap - 1;
    // Every occupied slot is live, so the rehash is a straight
    // redistribution.
    for (const detail_flat::Slot s : old) {
      if (s.index == detail_flat::kNilSlot) continue;
      std::size_t i = hash_(entries_[s.index].key) & p.mask;
      while (p.slots[i].index != detail_flat::kNilSlot) i = (i + 1) & p.mask;
      p.slots[i] = s;
    }
  }

  template <typename... Args>
  std::pair<V*, bool> emplace_hashed(std::uint64_t h, const K& key,
                                     Args&&... args) {
    Partition& p = parts_[h >> kPartShift];
    if (p.slots.empty() || (p.used + 1) * 4 > p.slots.size() * 3)
      grow_to(p, p.slots.empty() ? kMinSlots : p.slots.size() * 2);
    std::size_t i = h & p.mask;
    const std::uint32_t frag = static_cast<std::uint32_t>(h >> 32);
    std::uint64_t probes = 0;
    for (;;) {
      ++probes;
      const detail_flat::Slot s = p.slots[i];
      if (s.index == detail_flat::kNilSlot) break;
      if (s.fragment == frag && entries_[s.index].key == key) {
        detail_flat::count_probes(probes);
        return {&entries_[s.index].value, false};
      }
      i = (i + 1) & p.mask;
    }
    detail_flat::count_probes(probes);
    assert(entries_.size() < detail_flat::kNilSlot);
    const std::uint32_t index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{key, V(std::forward<Args>(args)...)});
    p.slots[i] = {index, frag};
    ++p.used;
    return {&entries_[index].value, true};
  }

  std::array<Partition, kPartitions> parts_;
  std::vector<Entry> entries_;  // dense, insertion order
  [[no_unique_address]] Hash hash_;
};

// Set facade over FlatMap with an empty mapped type: same partitioned
// index, batched API, determinism contract, and metrics.
template <typename K, typename Hash = FlatHash<K>,
          unsigned kPartitionBits = 3>
class FlatSet {
  struct Unit {};
  using Map = FlatMap<K, Unit, Hash, kPartitionBits>;

 public:
  static constexpr std::size_t kBatchWidth = Map::kBatchWidth;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> keys) {
    for (const K& k : keys) insert(k);
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  void clear() noexcept { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  bool insert(const K& key) { return map_.try_emplace(key).second; }
  [[nodiscard]] bool contains(const K& key) const {
    return map_.contains(key);
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  // inserted[i] = 1 when key i was new (duplicates within the batch
  // resolve in key order, exactly like sequential insert calls).
  void insert_batch(std::span<const K> keys,
                    std::span<std::uint8_t> inserted = {}) {
    units_.assign(keys.size(), Unit{});
    map_.insert_batch(keys, units_, inserted);
  }

  // Key iteration in insertion order.
  class const_iterator {
   public:
    using value_type = K;
    using difference_type = std::ptrdiff_t;
    const_iterator() = default;
    explicit const_iterator(const typename Map::Entry* p) noexcept : p_(p) {}
    const K& operator*() const noexcept { return p_->key; }
    const K* operator->() const noexcept { return &p_->key; }
    const_iterator& operator++() noexcept {
      ++p_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator t = *this;
      ++p_;
      return t;
    }
    friend bool operator==(const_iterator a, const_iterator b) = default;

   private:
    const typename Map::Entry* p_ = nullptr;
  };
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(map_.empty() ? nullptr : &*map_.begin());
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(map_.empty() ? nullptr : &*map_.begin() + size());
  }

 private:
  Map map_;
  std::vector<Unit> units_;  // scratch for insert_batch
};

}  // namespace longtail::util

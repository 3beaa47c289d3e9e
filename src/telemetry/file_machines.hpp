// Per-file distinct-machine sets, indexed densely by file id.
//
// Fig. 2's long tail shapes this table: almost every file is downloaded
// by exactly one machine (87.8% of the files at scale 0.05). So a file's
// first machine lives inline in its 32-byte record, and a file allocates
// only when it gets its second distinct machine. From then on a sorted
// spill vector holds every machine of the file, the first one included,
// so a set is always one contiguous ascending run.
//
// Both per-file machine sets of the pipeline are this table: the σ-cap
// admission state of `PrevalenceTracker` (collection.hpp) and the reach
// of `FileReach` (index.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/ids.hpp"

namespace longtail::telemetry {

class FileMachines {
 public:
  explicit FileMachines(std::size_t num_files = 0) : records_(num_files) {}

  // Adds `m` to `f`'s set unless the set already holds `cap` machines.
  // Returns true when `m` is in the set afterwards. A file id at or past
  // size() grows the table.
  bool insert(model::FileId f, model::MachineId m, std::uint32_t cap) {
    if (f.raw() >= records_.size())
      records_.resize(static_cast<std::size_t>(f.raw()) + 1);
    Record& r = records_[f.raw()];
    const auto set = view(r);
    const auto it = std::lower_bound(set.begin(), set.end(), m);
    if (it != set.end() && *it == m) return true;
    if (r.count >= cap) return false;
    const auto pos = it - set.begin();
    if (r.count == 0) {
      r.first = m;
    } else {
      if (r.count == 1) {
        r.spill.reserve(2);
        r.spill.push_back(r.first);
      }
      r.spill.insert(r.spill.begin() + pos, m);
    }
    ++r.count;
    return true;
  }

  // Distinct machines of `f`; 0 for a file never inserted.
  [[nodiscard]] std::uint32_t count(model::FileId f) const {
    return f.raw() < records_.size() ? records_[f.raw()].count : 0;
  }

  // `f`'s machines, ascending. The span points into the table, so the
  // next insert() may invalidate it.
  [[nodiscard]] std::span<const model::MachineId> machines(
      model::FileId f) const {
    if (f.raw() >= records_.size()) return {};
    return view(records_[f.raw()]);
  }

  // Starts loading `f`'s record into the cache, for a loop that inserts
  // or reads it a few iterations later. No-op for an id past size().
  void prefetch(model::FileId f) const {
    if (f.raw() < records_.size()) __builtin_prefetch(&records_[f.raw()], 1);
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  struct Record {
    std::uint32_t count = 0;
    model::MachineId first;               // the set while count == 1
    std::vector<model::MachineId> spill;  // the set once count >= 2
  };
  static_assert(sizeof(Record) <= 32);

  static std::span<const model::MachineId> view(const Record& r) {
    if (r.count <= 1) return {&r.first, r.count};
    return r.spill;
  }

  std::vector<Record> records_;
};

}  // namespace longtail::telemetry

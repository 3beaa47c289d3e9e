// Columnar (structure-of-arrays) storage for the corpus event stream.
//
// The event table is the hot data of the whole reproduction: every
// measurement module scans it front to back. Storing each field in its own
// contiguous column keeps those scans cache- and SIMD-friendly and lets the
// binary dataset format (telemetry/ltds.hpp) write whole columns with one
// bulk copy. `EventRef` is a zero-cost proxy that reads one row; it
// converts implicitly to `model::DownloadEvent`, which stays the
// interchange struct for code that wants a materialized event. The store
// owns its columns; readers see them as spans.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/event.hpp"
#include "model/ids.hpp"
#include "model/time.hpp"

namespace longtail::telemetry {

class EventStore {
 public:
  class EventRef;
  class const_iterator;

  EventStore() = default;
  EventStore(std::initializer_list<model::DownloadEvent> events) {
    assign(events);
  }
  EventStore& operator=(std::initializer_list<model::DownloadEvent> events) {
    clear();
    assign(events);
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  void reserve(std::size_t n) {
    file_.reserve(n);
    machine_.reserve(n);
    process_.reserve(n);
    url_.reserve(n);
    time_.reserve(n);
    executed_.reserve(n);
  }

  void clear() noexcept {
    file_.clear();
    machine_.clear();
    process_.clear();
    url_.clear();
    time_.clear();
    executed_.clear();
  }

  void push_back(const model::DownloadEvent& e) {
    file_.push_back(e.file);
    machine_.push_back(e.machine);
    process_.push_back(e.process);
    url_.push_back(e.url);
    time_.push_back(e.time);
    executed_.push_back(e.executed ? 1 : 0);
  }

  template <typename Range>
  void assign(const Range& events) {
    reserve(size() + std::size(events));
    for (const model::DownloadEvent& e : events) push_back(e);
  }

  [[nodiscard]] EventRef operator[](std::size_t i) const noexcept {
    return EventRef(this, i);
  }
  [[nodiscard]] EventRef front() const noexcept { return (*this)[0]; }
  [[nodiscard]] EventRef back() const noexcept { return (*this)[size() - 1]; }

  [[nodiscard]] const_iterator begin() const noexcept;
  [[nodiscard]] const_iterator end() const noexcept;

  // Raw columns — the binary format and the fingerprint read these, and
  // index construction iterates them directly.
  [[nodiscard]] std::span<const model::FileId> file_column() const noexcept {
    return file_;
  }
  [[nodiscard]] std::span<const model::MachineId> machine_column()
      const noexcept {
    return machine_;
  }
  [[nodiscard]] std::span<const model::ProcessId> process_column()
      const noexcept {
    return process_;
  }
  [[nodiscard]] std::span<const model::UrlId> url_column() const noexcept {
    return url_;
  }
  [[nodiscard]] std::span<const model::Timestamp> time_column()
      const noexcept {
    return time_;
  }
  [[nodiscard]] std::span<const std::uint8_t> executed_column()
      const noexcept {
    return executed_;
  }

  // Narrow mutator for tests that perturb a stored stream in place.
  void set_time(std::size_t i, model::Timestamp t) noexcept { time_[i] = t; }

  // Adopt pre-built columns (the binary loader reads columns wholesale).
  // All columns must have the same length; `executed` may be empty, which
  // means "all executed" (the on-disk formats only carry accepted events).
  static EventStore from_columns(std::vector<model::FileId> file,
                                 std::vector<model::MachineId> machine,
                                 std::vector<model::ProcessId> process,
                                 std::vector<model::UrlId> url,
                                 std::vector<model::Timestamp> time,
                                 std::vector<std::uint8_t> executed = {}) {
    EventStore out;
    if (executed.empty()) executed.assign(time.size(), 1);
    assert(file.size() == time.size() && machine.size() == time.size() &&
           process.size() == time.size() && url.size() == time.size() &&
           executed.size() == time.size());
    out.file_ = std::move(file);
    out.machine_ = std::move(machine);
    out.process_ = std::move(process);
    out.url_ = std::move(url);
    out.time_ = std::move(time);
    out.executed_ = std::move(executed);
    return out;
  }

  friend bool operator==(const EventStore& a, const EventStore& b) = default;

  class EventRef {
   public:
    EventRef(const EventStore* store, std::size_t i) noexcept
        : store_(store), index_(i) {}

    [[nodiscard]] model::FileId file() const noexcept {
      return store_->file_column()[index_];
    }
    [[nodiscard]] model::MachineId machine() const noexcept {
      return store_->machine_column()[index_];
    }
    [[nodiscard]] model::ProcessId process() const noexcept {
      return store_->process_column()[index_];
    }
    [[nodiscard]] model::UrlId url() const noexcept {
      return store_->url_column()[index_];
    }
    [[nodiscard]] model::Timestamp time() const noexcept {
      return store_->time_column()[index_];
    }
    [[nodiscard]] bool executed() const noexcept {
      return store_->executed_column()[index_] != 0;
    }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

    // Materialize the interchange struct (feature extraction and the TSV
    // writer consume whole events).
    operator model::DownloadEvent() const noexcept {  // NOLINT(implicit)
      return model::DownloadEvent{file(), machine(), process(),
                                  url(),  time(),    executed()};
    }

   private:
    const EventStore* store_;
    std::size_t index_;
  };

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = EventRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = EventRef;

    const_iterator() noexcept = default;
    const_iterator(const EventStore* store, std::size_t i) noexcept
        : store_(store), index_(i) {}

    [[nodiscard]] EventRef operator*() const noexcept {
      return EventRef(store_, index_);
    }
    const_iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator tmp = *this;
      ++index_;
      return tmp;
    }
    const_iterator& operator+=(difference_type d) noexcept {
      index_ = static_cast<std::size_t>(
          static_cast<difference_type>(index_) + d);
      return *this;
    }
    [[nodiscard]] friend const_iterator operator+(const_iterator it,
                                                  difference_type d) noexcept {
      it += d;
      return it;
    }
    [[nodiscard]] friend difference_type operator-(
        const const_iterator& a, const const_iterator& b) noexcept {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    [[nodiscard]] friend bool operator==(const const_iterator& a,
                                         const const_iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    const EventStore* store_ = nullptr;
    std::size_t index_ = 0;
  };

 private:
  std::vector<model::FileId> file_;
  std::vector<model::MachineId> machine_;
  std::vector<model::ProcessId> process_;
  std::vector<model::UrlId> url_;
  std::vector<model::Timestamp> time_;
  std::vector<std::uint8_t> executed_;  // 0/1; the TSV format omits it
};

inline EventStore::const_iterator EventStore::begin() const noexcept {
  return const_iterator(this, 0);
}
inline EventStore::const_iterator EventStore::end() const noexcept {
  return const_iterator(this, size());
}

// The largest raw id of `ids` when it is not below `table` — the size of
// the table the ids index — and nothing when every id is below it.
template <std::ranges::input_range Ids>
[[nodiscard]] std::optional<std::uint32_t> largest_id_outside(
    Ids&& ids, std::size_t table) {
  std::uint32_t largest = 0;
  for (const auto id : ids) largest = std::max(largest, id.raw());
  if (std::ranges::empty(ids) || largest < table) return std::nullopt;
  return largest;
}

// Throws std::out_of_range, naming `who`, the id `kind` and the largest
// id, when an id of `column` is not below `table`. One read of the column
// checks a whole window, so a caller can reject the window before it
// folds any event.
template <typename Id>
void require_ids_below(std::span<const Id> column, std::size_t table,
                       std::string_view who, std::string_view kind) {
  const auto largest = largest_id_outside(column, table);
  if (!largest) return;
  const std::string k(kind);
  throw std::out_of_range(std::string(who) + ": event " + k + " id " +
                          std::to_string(*largest) +
                          " is outside the corpus " + k + " table");
}

}  // namespace longtail::telemetry

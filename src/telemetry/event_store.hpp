// Columnar (structure-of-arrays) storage for the corpus event stream.
//
// The event table is the hot data of the whole reproduction: every
// measurement module scans it front to back. Storing each field in its own
// contiguous column keeps those scans cache- and SIMD-friendly and lets the
// binary corpus format (telemetry/binary.hpp) write whole columns with one
// bulk copy. `EventRef` is a zero-cost proxy that reads one row; it
// converts implicitly to `model::DownloadEvent`, which stays the
// interchange struct for code that wants a materialized event.
//
// A store is either *owning* (the default: columns live in vectors) or a
// *view* (`from_spans`): columns alias external memory — in practice a
// memory-mapped corpus file (telemetry/mapped.hpp) — and a keepalive
// handle pins that memory for as long as any copy of the store exists.
// Views are immutable; every reader (scan layer, analyses, indexes) works
// identically on both because all access goes through the column spans.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
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

  [[nodiscard]] std::size_t size() const noexcept {
    return view_ ? time_view_.size() : time_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // True when the columns alias external memory (a mapped corpus file)
  // instead of owned vectors.
  [[nodiscard]] bool mapped() const noexcept { return view_; }

  void reserve(std::size_t n) {
    assert(!view_);
    file_.reserve(n);
    machine_.reserve(n);
    process_.reserve(n);
    url_.reserve(n);
    time_.reserve(n);
    executed_.reserve(n);
  }

  void clear() noexcept {
    // Clearing a view drops the aliasing and returns to an empty owning
    // store (the keepalive is released).
    view_ = false;
    keepalive_.reset();
    file_view_ = {};
    machine_view_ = {};
    process_view_ = {};
    url_view_ = {};
    time_view_ = {};
    executed_view_ = {};
    file_.clear();
    machine_.clear();
    process_.clear();
    url_.clear();
    time_.clear();
    executed_.clear();
  }

  void push_back(const model::DownloadEvent& e) {
    assert(!view_);
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
  // index construction iterates them directly. For a view store these are
  // the external (mapped) slices; for an owning store, the vectors.
  [[nodiscard]] std::span<const model::FileId> file_column() const noexcept {
    return view_ ? file_view_ : std::span<const model::FileId>(file_);
  }
  [[nodiscard]] std::span<const model::MachineId> machine_column()
      const noexcept {
    return view_ ? machine_view_ : std::span<const model::MachineId>(machine_);
  }
  [[nodiscard]] std::span<const model::ProcessId> process_column()
      const noexcept {
    return view_ ? process_view_ : std::span<const model::ProcessId>(process_);
  }
  [[nodiscard]] std::span<const model::UrlId> url_column() const noexcept {
    return view_ ? url_view_ : std::span<const model::UrlId>(url_);
  }
  [[nodiscard]] std::span<const model::Timestamp> time_column()
      const noexcept {
    return view_ ? time_view_ : std::span<const model::Timestamp>(time_);
  }
  [[nodiscard]] std::span<const std::uint8_t> executed_column()
      const noexcept {
    return view_ ? executed_view_ : std::span<const std::uint8_t>(executed_);
  }

  // Narrow mutator for tests that perturb a stored stream in place.
  // Owning stores only — views alias read-only mapped memory.
  void set_time(std::size_t i, model::Timestamp t) noexcept {
    assert(!view_);
    time_[i] = t;
  }

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

  // Adopt external column slices without copying — the zero-copy load
  // path (telemetry/mapped.hpp). `keepalive` pins the backing memory (the
  // file mapping); copies of the store share it, so a view outliving its
  // loader is safe. All columns must have the same length.
  static EventStore from_spans(std::span<const model::FileId> file,
                               std::span<const model::MachineId> machine,
                               std::span<const model::ProcessId> process,
                               std::span<const model::UrlId> url,
                               std::span<const model::Timestamp> time,
                               std::span<const std::uint8_t> executed,
                               std::shared_ptr<const void> keepalive) {
    assert(file.size() == time.size() && machine.size() == time.size() &&
           process.size() == time.size() && url.size() == time.size() &&
           executed.size() == time.size());
    EventStore out;
    out.view_ = true;
    out.keepalive_ = std::move(keepalive);
    out.file_view_ = file;
    out.machine_view_ = machine;
    out.process_view_ = process;
    out.url_view_ = url;
    out.time_view_ = time;
    out.executed_view_ = executed;
    return out;
  }

  // Element-wise column equality — a mapped view and an owning store with
  // the same events compare equal.
  friend bool operator==(const EventStore& a, const EventStore& b) {
    return std::ranges::equal(a.file_column(), b.file_column()) &&
           std::ranges::equal(a.machine_column(), b.machine_column()) &&
           std::ranges::equal(a.process_column(), b.process_column()) &&
           std::ranges::equal(a.url_column(), b.url_column()) &&
           std::ranges::equal(a.time_column(), b.time_column()) &&
           std::ranges::equal(a.executed_column(), b.executed_column());
  }

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
  // Owning storage (empty while view_ is set).
  std::vector<model::FileId> file_;
  std::vector<model::MachineId> machine_;
  std::vector<model::ProcessId> process_;
  std::vector<model::UrlId> url_;
  std::vector<model::Timestamp> time_;
  std::vector<std::uint8_t> executed_;  // 0/1; the TSV format omits it

  // View storage (valid while view_ is set): external column slices plus
  // the handle that keeps their backing memory alive.
  bool view_ = false;
  std::span<const model::FileId> file_view_;
  std::span<const model::MachineId> machine_view_;
  std::span<const model::ProcessId> process_view_;
  std::span<const model::UrlId> url_view_;
  std::span<const model::Timestamp> time_view_;
  std::span<const std::uint8_t> executed_view_;
  std::shared_ptr<const void> keepalive_;
};

inline EventStore::const_iterator EventStore::begin() const noexcept {
  return const_iterator(this, 0);
}
inline EventStore::const_iterator EventStore::end() const noexcept {
  return const_iterator(this, size());
}

// Throws std::out_of_range, naming `who`, the id `kind` and the largest
// id, when an id of `column` is not below `table` — the size of the
// corpus table the ids index. One read of the column checks a whole
// window, so a caller can reject the window before it folds any event.
template <typename Id>
void require_ids_below(std::span<const Id> column, std::size_t table,
                       std::string_view who, std::string_view kind) {
  std::uint32_t largest = 0;
  for (const Id id : column) largest = std::max(largest, id.raw());
  if (column.empty() || largest < table) return;
  const std::string k(kind);
  throw std::out_of_range(std::string(who) + ": event " + k + " id " +
                          std::to_string(largest) + " is outside the corpus " +
                          k + " table");
}

}  // namespace longtail::telemetry

// The telemetry corpus: the complete set of download events reported to the
// vendor's collection server, plus per-entity metadata tables.
//
// This mirrors the dataset of §II-A: events are 5-tuples referencing dense
// entity tables. The corpus carries *no verdicts* — labeling is derived
// separately from evidence (see groundtruth/).
#pragma once

#include <cstdint>
#include <ranges>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/event.hpp"
#include "model/ids.hpp"
#include "telemetry/event_store.hpp"
#include "util/interner.hpp"

namespace longtail::telemetry {

struct Corpus {
  // Time-sorted stream of reported download events, stored columnar (see
  // event_store.hpp). Scan it through telemetry/scan.hpp.
  EventStore events;

  // Entity metadata, indexed by the dense ids in the events.
  std::vector<model::FileMeta> files;
  std::vector<model::ProcessMeta> processes;
  std::vector<model::UrlMeta> urls;
  std::vector<model::DomainMeta> domains;

  // Name pools. Ids in metadata index into these.
  util::StringInterner domain_names;
  util::StringInterner signer_names;
  util::StringInterner ca_names;
  util::StringInterner packer_names;
  util::StringInterner family_names;
  // On-disk executable names of downloading processes ("chrome.exe", ...)
  util::StringInterner process_names;

  // Total number of distinct monitored machines (machine ids are dense in
  // [0, machine_count)).
  std::uint32_t machine_count = 0;

  [[nodiscard]] std::size_t num_files() const noexcept { return files.size(); }
  [[nodiscard]] std::size_t num_processes() const noexcept {
    return processes.size();
  }
  [[nodiscard]] std::size_t num_domains() const noexcept {
    return domains.size();
  }

  [[nodiscard]] std::string_view domain_of_url(model::UrlId u) const {
    return domain_names.at(urls[u.raw()].domain.raw());
  }

  [[nodiscard]] std::string_view process_name(model::ProcessId p) const {
    return process_names.at(processes[p.raw()].name);
  }
};

// Throws std::runtime_error, naming the column and the id, unless every
// event's file, machine, process and url id and every url's domain id is
// below the size of the table it indexes (machines: `machine_count`). The
// loaders run it after parsing: checksums prove a file is the one that
// was written, not that its ids index its own tables, and the index and
// annotation layers write through these ids unchecked.
inline void require_ids_in_tables(const Corpus& corpus) {
  const auto check = [](auto&& ids, std::size_t table, const char* column) {
    if (const auto id = largest_id_outside(ids, table))
      throw std::runtime_error(std::string("corpus ") + column + " id " +
                               std::to_string(*id) + " is outside its table (" +
                               std::to_string(table) + " entries)");
  };
  const EventStore& ev = corpus.events;
  check(ev.file_column(), corpus.files.size(), "event file");
  check(ev.machine_column(), corpus.machine_count, "event machine");
  check(ev.process_column(), corpus.processes.size(), "event process");
  check(ev.url_column(), corpus.urls.size(), "event url");
  check(corpus.urls | std::views::transform(&model::UrlMeta::domain),
        corpus.domains.size(), "url domain");
}

}  // namespace longtail::telemetry

#include "synth/dataset_io.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "telemetry/fingerprint.hpp"
#include "util/binary.hpp"
#include "util/flat_table.hpp"
#include "util/mmap.hpp"
#include "util/trace.hpp"

namespace longtail::synth {

namespace {

using telemetry::SectionKind;
using telemetry::SectionTable;

template <typename Enum>
void write_enum_vec(util::BinaryWriter& out, const std::vector<Enum>& v) {
  static_assert(sizeof(Enum) == 1);
  out.pod_array(std::span<const Enum>(v));
}

template <typename Enum>
void read_enum_vec(util::SpanReader& in, std::vector<Enum>& v) {
  static_assert(sizeof(Enum) == 1);
  v = in.pod_array<Enum>();
}

void write_bool_vec(util::BinaryWriter& out, const std::vector<bool>& v) {
  std::vector<std::uint8_t> bytes(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) bytes[i] = v[i] ? 1 : 0;
  out.pod_array(std::span<const std::uint8_t>(bytes));
}

std::vector<bool> read_bool_vec(util::SpanReader& in) {
  const auto bytes = in.pod_array<std::uint8_t>();
  std::vector<bool> v(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) v[i] = bytes[i] != 0;
  return v;
}

template <typename Id>
void write_id_set(util::BinaryWriter& out, const util::FlatSet<Id>& set) {
  std::vector<std::uint32_t> ids;
  ids.reserve(set.size());
  for (const Id id : set) ids.push_back(id.raw());
  std::sort(ids.begin(), ids.end());
  out.pod_array(std::span<const std::uint32_t>(ids));
}

void write_reports(util::BinaryWriter& out, const groundtruth::VtDatabase& vt,
                   std::size_t n, auto make_id) {
  out.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& report = vt.query(make_id(i));
    out.u8(report.has_value() ? 1 : 0);
    if (!report) continue;
    out.i64(report->first_scan);
    out.i64(report->last_scan);
    out.u32(static_cast<std::uint32_t>(report->detections.size()));
    for (const auto& det : report->detections) {
      out.u16(det.engine);
      out.i64(det.signature_time);
      out.str(det.label);
    }
  }
}

void read_reports(util::SpanReader& in, groundtruth::VtDatabase& vt,
                  auto make_id) {
  // Counts validated against the bytes left (minimum record sizes: 1 byte
  // per present-flag, 14 per detection) so a corrupt count is a typed
  // error instead of a giant allocation.
  const std::uint64_t n = in.checked_count(in.u64(), 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (in.u8() == 0) continue;
    groundtruth::VtReport report;
    report.first_scan = in.i64();
    report.last_scan = in.i64();
    report.detections.resize(in.checked_count(in.u32(), 14));
    for (auto& det : report.detections) {
      det.engine = in.u16();
      det.signature_time = in.i64();
      det.label = in.str();
    }
    vt.put(make_id(i), std::move(report));
  }
}

void write_stats(util::BinaryWriter& out, const Dataset& dataset) {
  out.u64(dataset.collection_stats.accepted);
  out.u64(dataset.collection_stats.dropped_not_executed);
  out.u64(dataset.collection_stats.dropped_prevalence_cap);
  out.u64(dataset.collection_stats.dropped_whitelisted_url);
  out.u64(dataset.collection_stats.dropped_duplicate);
  out.u64(dataset.collection_stats.quarantined_malformed);
  out.u64(dataset.collection_stats.dropped_stale);

  out.u64(dataset.transport_stats.reports_offered);
  out.u64(dataset.transport_stats.dropped_offline);
  out.u64(dataset.transport_stats.delivered);
  out.u64(dataset.transport_stats.duplicates);
  out.u64(dataset.transport_stats.corrupted);
}

void read_stats(util::SpanReader& in, Dataset& ds) {
  ds.collection_stats.accepted = in.u64();
  ds.collection_stats.dropped_not_executed = in.u64();
  ds.collection_stats.dropped_prevalence_cap = in.u64();
  ds.collection_stats.dropped_whitelisted_url = in.u64();
  ds.collection_stats.dropped_duplicate = in.u64();
  ds.collection_stats.quarantined_malformed = in.u64();
  ds.collection_stats.dropped_stale = in.u64();

  ds.transport_stats.reports_offered = in.u64();
  ds.transport_stats.dropped_offline = in.u64();
  ds.transport_stats.delivered = in.u64();
  ds.transport_stats.duplicates = in.u64();
  ds.transport_stats.corrupted = in.u64();
}

void rebuild_profile(Dataset& ds, double scale, std::uint64_t seed,
                     std::uint32_t sigma, const std::string& fault_spec) {
  ds.profile = paper_calibration(scale);
  ds.profile.seed = seed;
  ds.profile.sigma = sigma;
  ds.profile.faults = telemetry::parse_fault_profile(fault_spec);
}

// The six dataset-only sections, appended after the corpus sections.
void write_dataset_sections(util::SectionWriter& sections,
                            util::BinaryWriter& out, const Dataset& dataset) {
  sections.begin(static_cast<std::uint32_t>(SectionKind::kProfile), 0);
  out.f64(dataset.profile.scale);
  out.u64(dataset.profile.seed);
  out.u32(dataset.profile.sigma);
  out.str(dataset.profile.faults.spec());
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kTruth), 0);
  const TruthTable& t = dataset.truth;
  write_enum_vec(out, t.file_nature);
  write_enum_vec(out, t.file_type);
  out.pod_array(std::span<const std::uint32_t>(t.file_family));
  write_bool_vec(out, t.file_family_extractable);
  write_enum_vec(out, t.file_intended);
  write_enum_vec(out, t.process_nature);
  write_enum_vec(out, t.process_type);
  write_enum_vec(out, t.process_intended);
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kWhitelist), 0);
  write_id_set(out, dataset.whitelist.files());
  write_id_set(out, dataset.whitelist.processes());
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kVtFiles),
                 dataset.vt.file_report_count());
  write_reports(out, dataset.vt, dataset.vt.file_report_count(),
                [](std::size_t i) {
                  return model::FileId{static_cast<std::uint32_t>(i)};
                });
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kVtProcesses),
                 dataset.vt.process_report_count());
  write_reports(out, dataset.vt, dataset.vt.process_report_count(),
                [](std::size_t i) {
                  return model::ProcessId{static_cast<std::uint32_t>(i)};
                });
  sections.end();

  sections.begin(static_cast<std::uint32_t>(SectionKind::kStats), 0);
  write_stats(out, dataset);
  sections.end();
}

// Parses the six dataset-only sections of an image into `ds` (whose
// corpus must already be loaded — the VT tables size off it). Verifies
// each section's checksum and releases consumed extents.
void parse_dataset_sections(std::span<const std::uint8_t> image,
                            const SectionTable& table, Dataset& ds,
                            const telemetry::ReleaseFn& release) {
  table.consume(image, SectionKind::kProfile, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  const double scale = in.f64();
                  const std::uint64_t seed = in.u64();
                  const std::uint32_t sigma = in.u32();
                  rebuild_profile(ds, scale, seed, sigma, in.str());
                });
  table.consume(image, SectionKind::kTruth, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  read_enum_vec(in, ds.truth.file_nature);
                  read_enum_vec(in, ds.truth.file_type);
                  ds.truth.file_family = in.pod_array<std::uint32_t>();
                  ds.truth.file_family_extractable = read_bool_vec(in);
                  read_enum_vec(in, ds.truth.file_intended);
                  read_enum_vec(in, ds.truth.process_nature);
                  read_enum_vec(in, ds.truth.process_type);
                  read_enum_vec(in, ds.truth.process_intended);
                });
  table.consume(image, SectionKind::kWhitelist, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  for (const std::uint32_t raw : in.pod_array<std::uint32_t>())
                    ds.whitelist.add(model::FileId{raw});
                  for (const std::uint32_t raw : in.pod_array<std::uint32_t>())
                    ds.whitelist.add(model::ProcessId{raw});
                });

  ds.vt.set_file_count(ds.corpus.files.size());
  ds.vt.set_process_count(ds.corpus.processes.size());
  table.consume(image, SectionKind::kVtFiles, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  read_reports(in, ds.vt, [](std::uint64_t i) {
                    return model::FileId{static_cast<std::uint32_t>(i)};
                  });
                });
  table.consume(image, SectionKind::kVtProcesses, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  read_reports(in, ds.vt, [](std::uint64_t i) {
                    return model::ProcessId{static_cast<std::uint32_t>(i)};
                  });
                });
  table.consume(image, SectionKind::kStats, release,
                [&](auto payload, std::uint64_t) {
                  util::SpanReader in(payload);
                  read_stats(in, ds);
                });
}

}  // namespace

void save_dataset_binary(const Dataset& dataset, const std::string& path) {
  LONGTAIL_TRACE_SPAN("synth.save_dataset");
  util::BinaryWriter out(path);
  out.reset_region_hash();
  out.u32(kDatasetBinaryMagic);
  out.u32(kDatasetBinaryVersion);
  out.u32(kDatasetSectionCount);
  out.u32(0);
  util::SectionWriter sections(out);
  telemetry::write_corpus_sections(sections, out, dataset.corpus);
  write_dataset_sections(sections, out, dataset);
  sections.finish();
  out.finish();
}

Dataset load_dataset_binary(const std::string& path) {
  LONGTAIL_TRACE_SPAN("synth.load_dataset");
  util::FileImage image(path);
  const auto bytes = image.bytes();
  const SectionTable table(bytes, kDatasetBinaryMagic, kDatasetBinaryVersion,
                           path);
  image.advise_sequential();
  // Each section's pages are released once it is parsed into owned
  // storage, so the transient high-water of a load is bounded by the
  // largest section, not the file size.
  const telemetry::ReleaseFn release = [&image](std::size_t off,
                                                std::size_t len) {
    image.release_range(off, len);
  };

  const std::uint64_t expected =
      telemetry::parse_meta(
          table.payload(bytes, table.require(SectionKind::kMeta)))
          .fingerprint;
  Dataset ds;
  ds.corpus = telemetry::parse_corpus_sections(bytes, table, release);
  if (telemetry::corpus_fingerprint(ds.corpus) != expected)
    throw std::runtime_error("dataset binary fingerprint mismatch: " + path);
  telemetry::require_ids_in_tables(ds.corpus);
  parse_dataset_sections(bytes, table, ds, release);
  return ds;
}

}  // namespace longtail::synth

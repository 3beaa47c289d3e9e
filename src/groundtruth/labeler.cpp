#include "groundtruth/labeler.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::groundtruth {

namespace {

// Mirrors a verdict vector into per-verdict counters. Runs as an extra
// serial pass only when metrics are on, so the parallel fill stays
// untouched and the totals are scheduling-independent by construction.
void count_verdicts(const char* prefix,
                    const std::vector<model::Verdict>& verdicts) {
  if (!util::metrics::enabled()) return;
  std::array<std::uint64_t, 5> n{};
  for (const auto v : verdicts) ++n[static_cast<std::size_t>(v)];
  static constexpr std::array<const char*, 5> kNames = {
      "benign", "likely_benign", "malicious", "likely_malicious", "unknown"};
  for (std::size_t i = 0; i < kNames.size(); ++i)
    util::metrics::counter(std::string(prefix) + kNames[i]).add(n[i]);
}

}  // namespace

model::Verdict Labeler::verdict(bool whitelisted,
                                const std::optional<VtReport>& vt) const {
  if (whitelisted) return model::Verdict::kBenign;
  if (!vt.has_value()) return model::Verdict::kUnknown;

  if (vt->clean()) return clean_verdict(vt->last_scan - vt->first_scan);
  for (const auto& det : vt->detections)
    if (is_trusted(det.engine)) return model::Verdict::kMalicious;
  return model::Verdict::kLikelyMalicious;
}

model::Verdict Labeler::verdict_as_of(bool whitelisted,
                                      const std::optional<VtReport>& vt,
                                      model::Timestamp when) const {
  if (whitelisted) return model::Verdict::kBenign;
  if (!vt.has_value() || vt->first_scan > when)
    return model::Verdict::kUnknown;  // VT has no record yet
  // verdict(false, vt->as_of(when)) without building the truncated report:
  // only signatures that exist by `when` count, and the scan span ends at
  // `when`.
  bool detected = false;
  for (const auto& det : vt->detections) {
    if (det.signature_time > when) continue;
    if (is_trusted(det.engine)) return model::Verdict::kMalicious;
    detected = true;
  }
  if (detected) return model::Verdict::kLikelyMalicious;
  return clean_verdict(std::min(vt->last_scan, when) - vt->first_scan);
}

model::Verdict Labeler::clean_verdict(std::int64_t span_s) const {
  return span_s / model::kSecondsPerDay >= config_.min_clean_span_days
             ? model::Verdict::kBenign
             : model::Verdict::kLikelyBenign;
}

LabelSet Labeler::label_all(std::size_t num_files, std::size_t num_processes,
                            const Whitelist& whitelist,
                            const VtDatabase& vt) const {
  LONGTAIL_TRACE_SPAN("groundtruth.label_all");
  // Each artifact's verdict depends only on its own evidence, so the loops
  // are parallel over preallocated slots; output order is by id either way.
  LabelSet out;
  out.file_verdicts.resize(num_files);
  util::parallel_for(
      num_files,
      [&](std::size_t i) {
        const model::FileId f{static_cast<std::uint32_t>(i)};
        out.file_verdicts[i] = verdict(whitelist.contains(f), vt.query(f));
      },
      /*grain=*/1024);
  out.process_verdicts.resize(num_processes);
  util::parallel_for(
      num_processes,
      [&](std::size_t i) {
        const model::ProcessId p{static_cast<std::uint32_t>(i)};
        out.process_verdicts[i] = verdict(whitelist.contains(p), vt.query(p));
      },
      /*grain=*/1024);
  count_verdicts("groundtruth.file_verdict.", out.file_verdicts);
  count_verdicts("groundtruth.process_verdict.", out.process_verdicts);
  return out;
}

}  // namespace longtail::groundtruth

// The file/process labeler of §II-B.
//
// Verdict assignment, given the available evidence (whitelists + VT):
//   * benign           — whitelist hit, or clean on VT after ~2 years with
//                        a first-to-last scan span of at least 14 days;
//   * likely benign    — clean on VT but scan span under 14 days;
//   * malicious        — at least one of the ten trusted AVs detects it;
//   * likely malicious — only non-trusted AVs detect it;
//   * unknown          — no evidence at all (never whitelisted, never
//                        scanned).
#pragma once

#include <cstdint>
#include <vector>

#include "groundtruth/engines.hpp"
#include "groundtruth/vt.hpp"
#include "groundtruth/whitelist.hpp"
#include "model/labels.hpp"

namespace longtail::groundtruth {

struct LabelerConfig {
  // Minimum first-to-last scan span for a clean VT report to count as
  // full "benign" rather than "likely benign".
  std::int64_t min_clean_span_days = 14;
};

// The verdicts for every file and process in a corpus.
struct LabelSet {
  std::vector<model::Verdict> file_verdicts;
  std::vector<model::Verdict> process_verdicts;

  [[nodiscard]] model::Verdict of(model::FileId f) const {
    return file_verdicts[f.raw()];
  }
  [[nodiscard]] model::Verdict of(model::ProcessId p) const {
    return process_verdicts[p.raw()];
  }
};

class Labeler {
 public:
  explicit Labeler(LabelerConfig config = {}) : config_(config) {}

  // Verdict for a single artifact's evidence.
  [[nodiscard]] model::Verdict verdict(bool whitelisted,
                                       const std::optional<VtReport>& vt) const;

  // The verdict a query at time `when` would have produced: signatures
  // developed later are invisible and the scan history is truncated. A
  // not-yet-detected malicious file reads as (likely-)benign or unknown —
  // the premature-labeling trap that motivates the paper's two-year
  // re-scan. Equals `verdict(whitelisted, vt->as_of(when))` once VT has a
  // record (Unknown before `first_scan`), computed in one pass over the
  // detections without copying the report.
  [[nodiscard]] model::Verdict verdict_as_of(
      bool whitelisted, const std::optional<VtReport>& vt,
      model::Timestamp when) const;

  // Labels every file and process in the corpus.
  [[nodiscard]] LabelSet label_all(std::size_t num_files,
                                   std::size_t num_processes,
                                   const Whitelist& whitelist,
                                   const VtDatabase& vt) const;

 private:
  // The verdict of a clean report whose scans span `span_s` seconds.
  [[nodiscard]] model::Verdict clean_verdict(std::int64_t span_s) const;

  LabelerConfig config_;
};

}  // namespace longtail::groundtruth

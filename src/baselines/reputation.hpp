// Baseline detectors from the related work the paper positions itself
// against (§VIII):
//
//   * `PrevalenceReputation` — a Polonium-style file-reputation scorer:
//     belief about a file is driven by how many machines (and how
//     reputable) have it. The paper's point: such systems degrade sharply
//     on low-prevalence files (Polonium reports 48% detection at
//     prevalence 2-3 and cannot score prevalence-1 files at all — 94% of
//     its dataset).
//
//   * `UrlReputation` — a CAMP/Amico-style download-source scorer: the
//     server/domain a file comes from carries the signal. The paper's
//     §IV-B observation: hosting domains serve both classes, so source
//     reputation alone confuses exactly the popular domains.
//
// Both train on the labeled files of a time window and emit a three-way
// verdict (malicious / benign / abstain), so their *coverage* of the long
// tail can be compared against the rule-based system's.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/annotated.hpp"
#include "model/time.hpp"
#include "util/flat_table.hpp"

namespace longtail::baselines {

enum class BaselineVerdict : std::uint8_t {
  kBenign = 0,
  kMalicious,
  kAbstain,  // not enough signal (e.g. prevalence-1 file, unseen domain)
};

struct BaselineEval {
  std::uint64_t decided_malicious = 0;  // ground-truth malicious, decided
  std::uint64_t decided_benign = 0;
  std::uint64_t abstained = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;

  [[nodiscard]] double detection_rate() const {
    return decided_malicious == 0
               ? 0.0
               : 100.0 * static_cast<double>(true_positives) /
                     static_cast<double>(decided_malicious);
  }
  [[nodiscard]] double fp_rate() const {
    return decided_benign == 0
               ? 0.0
               : 100.0 * static_cast<double>(false_positives) /
                     static_cast<double>(decided_benign);
  }
  [[nodiscard]] double coverage(std::uint64_t total) const {
    return total == 0 ? 0.0
                      : 100.0 *
                            static_cast<double>(decided_malicious +
                                                decided_benign) /
                            static_cast<double>(total);
  }
};

// Polonium-style: machine reputation <-> file belief, one propagation
// sweep. A machine is reputable when it holds mostly benign files; a
// file's maliciousness belief aggregates its machines' reputations.
// Files below `min_prevalence` are abstained on. A file's machines are
// the corpus index's (`a.index.reach()`); only the machine risks are
// learned here.
struct PrevalenceReputationConfig {
  std::uint32_t min_prevalence = 2;  // Polonium cannot score singletons
  double malicious_threshold = 0.62;
  double benign_threshold = 0.38;
};

class PrevalenceReputation {
 public:
  using Config = PrevalenceReputationConfig;

  PrevalenceReputation(const analysis::AnnotatedCorpus& a,
                       model::Timestamp train_end,
                       PrevalenceReputationConfig config = {});

  [[nodiscard]] BaselineVerdict classify(const analysis::AnnotatedCorpus& a,
                                         model::FileId file) const;

 private:
  Config config_;
  // classify() probes one risk entry per distinct machine of the file —
  // the baseline's hot lookup.
  util::FlatMap<std::uint32_t, float> machine_risk_;
};

// CAMP/Amico-style: per-domain malicious ratio learned from the training
// window; files are judged by their hosting domains.
struct UrlReputationConfig {
  std::uint32_t min_observations = 5;  // unseen/rare domains: abstain
  double malicious_threshold = 0.5;
  double benign_threshold = 0.15;
};

class UrlReputation {
 public:
  using Config = UrlReputationConfig;

  UrlReputation(const analysis::AnnotatedCorpus& a,
                model::Timestamp train_end, UrlReputationConfig config = {});

  [[nodiscard]] BaselineVerdict classify(const analysis::AnnotatedCorpus& a,
                                         model::FileId file) const;

 private:
  struct DomainStats {
    std::uint32_t benign = 0, malicious = 0;
  };
  Config config_;
  util::FlatMap<std::uint32_t, DomainStats> domains_;
  util::FlatMap<std::uint32_t, std::vector<std::uint32_t>> file_domains_;
};

// Evaluates a baseline on the labeled files first observed in
// [eval_begin, eval_end).
template <typename Baseline>
BaselineEval evaluate_baseline(const Baseline& baseline,
                               const analysis::AnnotatedCorpus& a,
                               model::Timestamp eval_begin,
                               model::Timestamp eval_end) {
  BaselineEval out;
  for (const auto file : a.index.observed_files()) {
    const auto first = a.index.first_seen(file);
    if (first < eval_begin || first >= eval_end) continue;
    const auto verdict = a.verdict(file);
    if (verdict != model::Verdict::kBenign &&
        verdict != model::Verdict::kMalicious)
      continue;
    const bool malicious = verdict == model::Verdict::kMalicious;
    switch (baseline.classify(a, file)) {
      case BaselineVerdict::kAbstain:
        ++out.abstained;
        break;
      case BaselineVerdict::kMalicious:
        ++(malicious ? out.decided_malicious : out.decided_benign);
        if (malicious) ++out.true_positives;
        else ++out.false_positives;
        break;
      case BaselineVerdict::kBenign:
        ++(malicious ? out.decided_malicious : out.decided_benign);
        break;
    }
  }
  return out;
}

}  // namespace longtail::baselines

// Fig. 2: the prevalence distribution of downloaded files, per verdict
// class — the paper's long-tail headline (almost 90% of files are
// downloaded and executed by exactly one machine, and the tail is driven
// by unknown files). Also the type-mix breakdown of Table II and the
// family distribution of Fig. 1.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/annotated.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

struct PrevalenceDistributions {
  util::EmpiricalCdf all, benign, malicious, unknown;
  // Fraction of all observed files with prevalence exactly 1.
  double prevalence_one_fraction = 0;
  // Fraction of observed files with prevalence above the sigma cap's
  // ceiling (the paper reports <= 0.25% at, i.e. capped to, 20).
  double at_cap_fraction = 0;

  friend bool operator==(const PrevalenceDistributions&,
                         const PrevalenceDistributions&) = default;
};

PrevalenceDistributions prevalence_distributions(const AnnotatedCorpus& a,
                                                 std::uint32_t sigma = 20);

// The finisher behind the batch call above (which passes
// `a.index.reach()`) and the streaming snapshot (analysis/streaming.hpp):
// folds every file `reach` has seen, under `a`'s labels.
PrevalenceDistributions prevalence_distributions(
    const AnnotatedCorpus& a, const telemetry::FileReach& reach,
    std::uint32_t sigma = 20);

// §IV-A: "we also explored the distribution of different malware types and
// found that they are very similar to each other." One CDF per behaviour
// type, over malicious files of that type.
std::array<util::EmpiricalCdf, model::kNumMalwareTypes>
prevalence_by_type(const AnnotatedCorpus& a);

// Table II: share of each behaviour type among malicious files.
std::array<double, model::kNumMalwareTypes> type_breakdown(
    const AnnotatedCorpus& a);

// Fig. 1: top families by number of malicious samples (AVclass), plus the
// fraction of malicious samples with no derivable family (paper: 58%).
struct FamilyDistribution {
  std::vector<std::pair<std::string, std::uint64_t>> top;  // largest first
  std::uint64_t total_malicious = 0;
  std::uint64_t with_family = 0;
  std::uint64_t distinct_families = 0;
  [[nodiscard]] double unresolved_fraction() const {
    return total_malicious == 0
               ? 0.0
               : 1.0 - static_cast<double>(with_family) /
                           static_cast<double>(total_malicious);
  }
};

FamilyDistribution family_distribution(const AnnotatedCorpus& a,
                                       std::size_t top_k = 25);

}  // namespace longtail::analysis

// Machine coverage per verdict class — the paper's headline measurement
// (§IV-A): unknown files, taken together, were downloaded and run by 69%
// of the entire machine population.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/annotated.hpp"

namespace longtail::analysis {

struct MachineCoverage {
  // Distinct machines that downloaded at least one file of each verdict.
  std::array<std::uint64_t, model::kNumVerdicts> machines{};
  std::uint64_t active_machines = 0;

  friend bool operator==(const MachineCoverage&,
                         const MachineCoverage&) = default;

  [[nodiscard]] double pct(model::Verdict v) const {
    return active_machines == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(
                         machines[static_cast<std::size_t>(v)]) /
                     static_cast<double>(active_machines);
  }
};

MachineCoverage machine_coverage(const AnnotatedCorpus& a);

// The finisher behind the batch call above (which passes
// `a.index.reach()`) and the streaming snapshot (analysis/streaming.hpp):
// the machines of every file `reach` has seen, bucketed by the file's
// verdict under `a`'s labels.
MachineCoverage machine_coverage(const AnnotatedCorpus& a,
                                 const telemetry::FileReach& reach);

}  // namespace longtail::analysis

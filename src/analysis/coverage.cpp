#include "analysis/coverage.hpp"

#include <vector>

namespace longtail::analysis {

MachineCoverage machine_coverage(const AnnotatedCorpus& a) {
  return machine_coverage(a, a.index.reach());
}

MachineCoverage machine_coverage(const AnnotatedCorpus& a,
                                 const telemetry::FileReach& reach) {
  static_assert(model::kNumVerdicts <= 8, "verdict bits must fit a byte");
  // Bit v set: the machine downloaded at least one file of verdict v.
  std::vector<std::uint8_t> seen(a.corpus->machine_count, 0);
  for (std::uint32_t i = 0; i < reach.num_files(); ++i) {
    const model::FileId f{i};
    const auto bit =
        static_cast<std::uint8_t>(1u << static_cast<unsigned>(a.verdict(f)));
    for (const auto m : reach.machines(f)) seen[m.raw()] |= bit;
  }
  MachineCoverage out;
  for (const unsigned bits : seen) {
    if (bits == 0) continue;
    ++out.active_machines;
    for (std::size_t v = 0; v < model::kNumVerdicts; ++v)
      out.machines[v] += (bits >> v) & 1u;
  }
  return out;
}

}  // namespace longtail::analysis

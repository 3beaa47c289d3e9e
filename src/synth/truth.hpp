// The generator's hidden ground truth.
//
// `TruthTable` records what each artifact *really is* (its nature, type,
// family) and which labeling outcome the calibration intended for it.
// Nothing downstream of the generator may read this table — the labeler,
// AVType, AVclass, the analyses, and the rule learner all work from
// observable evidence only. The truth table exists for (a) the generator
// itself, (b) the §II-C "manual analysis" oracle (5% of type conflicts are
// settled by an analyst, whom we model as all-knowing), and (c) test
// assertions.
#pragma once

#include <cstdint>
#include <vector>

#include "model/labels.hpp"

namespace longtail::synth {

enum class Nature : std::uint8_t { kBenign = 0, kMalicious = 1 };

struct TruthTable {
  // Per file (indexed by FileId).
  std::vector<Nature> file_nature;
  std::vector<model::MalwareType> file_type;  // meaningful iff malicious
  std::vector<std::uint32_t> file_family;     // corpus.family_names id or ~0u
  std::vector<bool> file_family_extractable;
  std::vector<model::Verdict> file_intended;  // labeling outcome by design

  // Per process (indexed by ProcessId).
  std::vector<Nature> process_nature;
  std::vector<model::MalwareType> process_type;
  std::vector<model::Verdict> process_intended;

  static constexpr std::uint32_t kNoFamily = ~0u;
};

}  // namespace longtail::synth

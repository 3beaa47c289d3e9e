// Table XII (§V-B): download behaviour of malicious processes, grouped by
// the behaviour type of the downloading process. Reuses the row shape of
// Table X and its row counter (analysis/processes.cpp, which defines
// `malicious_process_behavior`); `overall` counts the union of the type
// rows, so a machine two types reach counts once.
#pragma once

#include <array>

#include "analysis/annotated.hpp"
#include "analysis/processes.hpp"

namespace longtail::analysis {

struct MalProcBehavior {
  std::array<ProcessBehaviorRow, model::kNumMalwareTypes> per_type{};
  ProcessBehaviorRow overall;
};

MalProcBehavior malicious_process_behavior(const AnnotatedCorpus& a);

}  // namespace longtail::analysis

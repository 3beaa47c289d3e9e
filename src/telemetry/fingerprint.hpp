// The corpus fingerprint. The dataset writer stores it in the META
// section (telemetry/ltds.hpp) and the loader recomputes it after
// parsing, so a load that decodes to a different corpus is a typed error.
#pragma once

#include <cstdint>

#include "telemetry/corpus.hpp"

namespace longtail::telemetry {

// Order-sensitive FNV/mix64 fingerprint over every column and metadata
// table of the corpus (events, files, processes, urls, domains, name
// pools, machine_count). Stable across save/load.
[[nodiscard]] std::uint64_t corpus_fingerprint(const Corpus& corpus);

}  // namespace longtail::telemetry

// Binary persistence for a complete generated Dataset — the corpus plus
// everything annotation needs (whitelist, VT evidence, hidden truth,
// collection stats). This is what the bench corpus cache
// (LONGTAIL_CORPUS_CACHE) stores: reloading a saved dataset reproduces the
// pipeline's outputs byte-for-byte without paying for regeneration.
//
// The file is the version-3 sectioned LTDS layout of telemetry/ltds.hpp
// (docs/corpus-format.md): the 17 corpus sections followed by PROFILE /
// TRUTH / WHITELIST / VT_FILES / VT_PROCESSES / STATS, each with its own
// checksum, closed by the section table. The calibration profile is not
// serialized wholesale: the file records (scale, seed, sigma, fault spec)
// and the loader rebuilds `paper_calibration(scale)` — datasets generated
// from otherwise hand-edited profiles should not be cached.
#pragma once

#include <string>

#include "synth/generator.hpp"
#include "telemetry/ltds.hpp"

namespace longtail::synth {

inline constexpr std::uint32_t kDatasetBinaryMagic = 0x5344544CU;  // "LTDS"
// 3: sectioned (telemetry/ltds.hpp); the only version read
inline constexpr std::uint32_t kDatasetBinaryVersion = 3;
inline constexpr std::uint32_t kDatasetSectionCount =
    telemetry::kCorpusSectionCount + 6;

void save_dataset_binary(const Dataset& dataset, const std::string& path);

// Verifies the header, every section checksum and the recomputed corpus
// fingerprint, copies every section into owned storage, and checks that
// the corpus ids index its tables (telemetry::require_ids_in_tables).
// Throws std::runtime_error on any failure.
[[nodiscard]] Dataset load_dataset_binary(const std::string& path);

}  // namespace longtail::synth

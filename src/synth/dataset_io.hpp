// Binary persistence for a complete generated Dataset — the corpus plus
// everything annotation needs (whitelist, VT evidence, hidden truth,
// collection stats). This is what the bench corpus cache
// (LONGTAIL_CORPUS_CACHE) stores: reloading a saved dataset reproduces the
// pipeline's outputs byte-for-byte without paying for regeneration.
//
// The corpus sections reuse the LTCP section codec (telemetry/mapped.hpp)
// and its fingerprint check (telemetry/binary.hpp). The calibration
// profile is not serialized wholesale: the file records (scale, seed,
// sigma, fault spec) and the loader rebuilds `paper_calibration(scale)` —
// datasets generated from otherwise hand-edited profiles should not be
// cached.
//
// The file is the version-3 sectioned, mmap-friendly layout of
// telemetry/mapped.hpp: the 17 corpus sections followed by PROFILE /
// TRUTH / WHITELIST / VT_FILES / VT_PROCESSES / STATS, each with its own
// checksum, closed by the section table. Both loaders accept exactly
// version 3; any other version is a typed load error.
#pragma once

#include <string>

#include "synth/generator.hpp"
#include "telemetry/mapped.hpp"

namespace longtail::synth {

inline constexpr std::uint32_t kDatasetBinaryMagic = 0x5344544CU;  // "LTDS"
// 3: sectioned, mmap-friendly (telemetry/mapped.hpp); the only version read
inline constexpr std::uint32_t kDatasetBinaryVersion = 3;
inline constexpr std::uint32_t kDatasetSectionCount =
    telemetry::kCorpusSectionCount + 6;

void save_dataset_binary(const Dataset& dataset, const std::string& path);
[[nodiscard]] Dataset load_dataset_binary(const std::string& path);

// Zero-copy load of a dataset: the event columns stay views into a
// private file mapping (pinned for the dataset's lifetime), everything
// else is parsed owned with per-section checksum verification. The event
// column checksums and the corpus fingerprint are NOT recomputed — that
// is the load-time win; LONGTAIL_MMAP_VERIFY=full restores them. This is
// what the bench corpus cache uses on a hit when LONGTAIL_MMAP is on.
[[nodiscard]] Dataset load_dataset_mapped(const std::string& path);

}  // namespace longtail::synth

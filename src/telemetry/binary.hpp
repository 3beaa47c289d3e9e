// Compact binary corpus format — the fast alternative to the TSV
// interchange in telemetry/io.hpp. Columnar event arrays are written with
// single bulk copies, so loading a saved corpus is far cheaper than
// regenerating it (or re-parsing TSV).
//
// The format is the version-3 *sectioned* layout of telemetry/mapped.hpp
// (see docs/corpus-format.md):
//   u32 magic "LTCP" | u32 version | u32 section_count | u32 reserved
//   | 8-aligned section payloads | section table | u64 table_checksum
// Every byte is covered by exactly one checksum region (its section's, or
// the header+table checksum), so corruption anywhere is a typed load
// error — and a memory-mapped reader can validate the table without
// faulting a single payload page in. The corpus fingerprint stored in the
// META section is recomputed by the owned loader and must match. Readers
// accept exactly version 3; any other version is a typed load error.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/corpus.hpp"

namespace longtail::telemetry {

inline constexpr std::uint32_t kCorpusBinaryMagic = 0x5043544CU;  // "LTCP"
// 3: sectioned, mmap-friendly (mapped.hpp); the only version read
inline constexpr std::uint32_t kCorpusBinaryVersion = 3;

// Order-sensitive FNV/mix64 fingerprint over every column and metadata
// table of the corpus (events, files, processes, urls, domains, name
// pools, machine_count). Stable across save/load and TSV round-trips.
[[nodiscard]] std::uint64_t corpus_fingerprint(const Corpus& corpus);

void save_binary(const Corpus& corpus, const std::string& path);
// Owned load; verifies the header, every section checksum and the
// recomputed corpus fingerprint.
[[nodiscard]] Corpus load_binary(const std::string& path);

}  // namespace longtail::telemetry

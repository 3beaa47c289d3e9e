// The sectioned (v3) binary layout of the LTDS dataset format
// (synth/dataset_io.hpp; docs/corpus-format.md): the table of contents
// and the writer and parser of the corpus sections.
//
// Every section carries its own checksum behind the table of contents, so
// the loader verifies each section as it parses it and can release the
// image pages of each one as soon as its contents are copied out.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/corpus.hpp"

namespace longtail::util {
class BinaryWriter;
class SectionWriter;
}  // namespace longtail::util

namespace longtail::telemetry {

// Section kinds of LTDS v3 (docs/corpus-format.md).
enum class SectionKind : std::uint32_t {
  kMeta = 1,  // corpus fingerprint + machine_count
  kEventFile = 2,
  kEventMachine = 3,
  kEventProcess = 4,
  kEventUrl = 5,
  kEventTime = 6,
  kEventExecuted = 7,
  kFiles = 8,
  kProcesses = 9,
  kUrls = 10,
  kDomains = 11,
  kStrDomain = 12,
  kStrSigner = 13,
  kStrCa = 14,
  kStrPacker = 15,
  kStrFamily = 16,
  kStrProcName = 17,
  // Dataset sections, after the corpus ones.
  kProfile = 18,
  kTruth = 19,
  kWhitelist = 20,
  kVtFiles = 21,
  kVtProcesses = 22,
  kStats = 23,
};

// Hard cap on the section count a reader will accept: the format writes
// ~two dozen sections, so anything larger is a corrupt or hostile header
// and must fail before any table-sized allocation.
inline constexpr std::uint32_t kMaxSections = 64;

// One parsed table-of-contents entry (util::SectionWriter wrote it).
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;    // payload start, 8-aligned
  std::uint64_t count = 0;     // element count (0 for opaque streams)
  std::uint64_t length = 0;    // payload bytes, excluding padding
  std::uint64_t checksum = 0;  // FNV-1a over the padded extent
};

// Receives the image pages of a consumed section, `len` bytes at `offset`,
// once its contents are copied into owned storage.
using ReleaseFn = std::function<void(std::size_t offset, std::size_t len)>;
// Parses one section, given its payload and its table-of-contents count.
using SectionParseFn =
    std::function<void(std::span<const std::uint8_t>, std::uint64_t)>;

// The parsed and integrity-checked table of contents of a v3 file. The
// constructor validates the header (magic/version), the table checksum
// (which covers the 16-byte header plus the table bytes), and every
// entry's bounds; it does NOT hash section payloads — that is what
// verify_section is for, per section, as the loader reaches it.
class SectionTable {
 public:
  SectionTable(std::span<const std::uint8_t> image, std::uint32_t magic,
               std::uint32_t version, const std::string& path);

  [[nodiscard]] const SectionEntry& require(SectionKind kind) const;

  // Recomputes one section's FNV-1a over its padded extent and throws a
  // typed error on mismatch.
  void verify_section(std::span<const std::uint8_t> image,
                      const SectionEntry& e) const;

  [[nodiscard]] std::span<const std::uint8_t> payload(
      std::span<const std::uint8_t> image, const SectionEntry& e) const {
    return image.subspan(e.offset, e.length);
  }

  // One loader step: verifies section `kind`'s checksum, hands its payload
  // and count to `parse`, then its padded extent to `release`.
  void consume(std::span<const std::uint8_t> image, SectionKind kind,
               const ReleaseFn& release, const SectionParseFn& parse) const;

 private:
  std::vector<SectionEntry> entries_;
  std::string path_;
};

// ---- shared v3 corpus codec -------------------------------------------

// Writes the 17 corpus sections (meta, six event columns, four entity
// tables, six name pools) through an open SectionWriter.
void write_corpus_sections(util::SectionWriter& sections,
                           util::BinaryWriter& out, const Corpus& corpus);
inline constexpr std::uint32_t kCorpusSectionCount = 17;

struct CorpusMeta {
  std::uint64_t fingerprint = 0;
  std::uint32_t machine_count = 0;
};
[[nodiscard]] CorpusMeta parse_meta(std::span<const std::uint8_t> payload);

// Parses a complete Corpus out of a v3 image, copying every column and
// table into owned storage. Verifies the checksum of every section it
// touches and releases each one once it is copied out, so the loader's
// transient residency stays bounded by the largest section.
[[nodiscard]] Corpus parse_corpus_sections(std::span<const std::uint8_t> image,
                                           const SectionTable& table,
                                           const ReleaseFn& release);

}  // namespace longtail::telemetry

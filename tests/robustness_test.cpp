// Robustness tests: hostile or malformed inputs must fail cleanly —
// parsers throw typed errors, extractors return "no result", and nothing
// crashes on arbitrary bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "avclass/avclass.hpp"
#include "avtype/avtype.hpp"
#include "synth/dataset_io.hpp"
#include "synth/generator.hpp"
#include "telemetry/ltds.hpp"
#include "tests/temp_dir.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace longtail {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = rng.uniform(max_len);
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(static_cast<char>(rng.uniform(256)));
  return out;
}

TEST(Robustness, AvTypeInterpretsArbitraryBytes) {
  util::Rng rng(101);
  for (int i = 0; i < 2000; ++i) {
    const auto label = random_bytes(rng, 64);
    // Must not crash; any MalwareType is acceptable.
    const auto type = avtype::interpret_label(label);
    EXPECT_LE(static_cast<std::size_t>(type), model::kNumMalwareTypes);
  }
}

TEST(Robustness, AvClassTokenizesArbitraryBytes) {
  util::Rng rng(103);
  for (int i = 0; i < 2000; ++i) {
    const auto label = random_bytes(rng, 64);
    const auto tokens = avclass::FamilyExtractor::candidate_tokens(label);
    for (const auto& token : tokens) {
      EXPECT_GE(token.size(), 4u);
      for (const char c : token) EXPECT_TRUE(c >= 'a' && c <= 'z');
    }
  }
}

TEST(Robustness, TypeExtractorOnRandomReports) {
  util::Rng rng(107);
  const avtype::TypeExtractor extractor;
  for (int i = 0; i < 500; ++i) {
    groundtruth::VtReport report;
    const auto n = rng.uniform(6);
    for (std::size_t d = 0; d < n; ++d)
      report.detections.push_back(
          {static_cast<std::uint16_t>(rng.uniform(48)),
           random_bytes(rng, 48)});
    const auto result = extractor.derive(report);
    EXPECT_LE(static_cast<std::size_t>(result.type),
              model::kNumMalwareTypes);
  }
}

// Sampled positions covering the whole image plus every byte of the
// header region (magic, version, section count, reserved) — flipping any
// section boundary lands in one of these.
std::vector<std::size_t> sample_positions(std::size_t size,
                                          std::size_t samples) {
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < std::min<std::size_t>(size, 32); ++i)
    pos.push_back(i);
  const std::size_t stride = std::max<std::size_t>(1, size / samples);
  for (std::size_t i = 32; i < size; i += stride) pos.push_back(i);
  if (size > 0) pos.push_back(size - 1);  // the checksum's last byte
  return pos;
}

// ------------------------------------------------- binary loader fuzzing
//
// The LTDS dataset loader must turn ANY damaged image into a typed
// std::runtime_error — never a crash, hang, allocation blow-up, or silent
// partial load. The format checksums every section plus the header and
// table of contents, and every byte of the image falls in exactly one
// checksum region — so every single-bit flip and every truncation is
// detectable by construction. These tests hold the loader to that.

class BinaryFuzz : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) const { return tmp_.file(name); }

  static const synth::Dataset& dataset() {
    static const synth::Dataset ds = synth::generate_dataset(0.01);
    return ds;
  }

  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  template <typename LoadFn>
  void expect_all_bit_flips_rejected(const std::string& image,
                                     const char* scratch_name, LoadFn load) {
    const auto scratch = temp_path(scratch_name);
    for (const std::size_t at : sample_positions(image.size(), 192)) {
      for (const unsigned bit : {0u, 7u}) {
        std::string damaged = image;
        damaged[at] = static_cast<char>(damaged[at] ^ (1u << bit));
        write_file(scratch, damaged);
        EXPECT_THROW((void)load(scratch), std::runtime_error)
            << "bit " << bit << " at byte " << at << " loaded anyway";
      }
    }
  }

  template <typename LoadFn>
  void expect_all_truncations_rejected(const std::string& image,
                                       const char* scratch_name,
                                       LoadFn load) {
    const auto scratch = temp_path(scratch_name);
    for (const std::size_t len : sample_positions(image.size(), 128)) {
      write_file(scratch, image.substr(0, len));
      EXPECT_THROW((void)load(scratch), std::runtime_error)
          << "truncation to " << len << " bytes loaded anyway";
    }
  }

  template <typename LoadFn>
  void expect_random_bytes_rejected(const char* scratch_name, LoadFn load) {
    const auto scratch = temp_path(scratch_name);
    util::Rng rng(1234);
    for (int i = 0; i < 64; ++i) {
      write_file(scratch, random_bytes(rng, 4096));
      EXPECT_THROW((void)load(scratch), std::runtime_error);
    }
  }

  test::TempDir tmp_;
};

TEST_F(BinaryFuzz, DatasetLoaderRejectsRandomBytes) {
  expect_random_bytes_rejected("ltds_random.bin", synth::load_dataset_binary);
}

TEST_F(BinaryFuzz, DatasetLoaderRejectsEveryBitFlip) {
  const auto path = temp_path("ltds_good.bin");
  synth::save_dataset_binary(dataset(), path);
  expect_all_bit_flips_rejected(file_bytes(path), "ltds_flip.bin",
                                synth::load_dataset_binary);
}

TEST_F(BinaryFuzz, DatasetLoaderRejectsEveryTruncation) {
  const auto path = temp_path("ltds_good.bin");
  synth::save_dataset_binary(dataset(), path);
  expect_all_truncations_rejected(file_bytes(path), "ltds_trunc.bin",
                                  synth::load_dataset_binary);
}

// ---- v3-specific hostile inputs ----------------------------------------

// A flip inside any of the six event columns must fail that column's
// checksum: the loader verifies every column before copying it, so
// damaged event data never reaches the index or the tables.
TEST_F(BinaryFuzz, EveryEventColumnFlipFailsItsChecksum) {
  const auto path = temp_path("ltds_good.bin");
  synth::save_dataset_binary(dataset(), path);
  const std::string image = file_bytes(path);
  const telemetry::SectionTable table(
      {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()},
      synth::kDatasetBinaryMagic, synth::kDatasetBinaryVersion, path);

  using telemetry::SectionKind;
  const auto scratch = temp_path("ltds_column_flip.bin");
  for (const SectionKind kind :
       {SectionKind::kEventFile, SectionKind::kEventMachine,
        SectionKind::kEventProcess, SectionKind::kEventUrl,
        SectionKind::kEventTime, SectionKind::kEventExecuted}) {
    const auto& col = table.require(kind);
    SCOPED_TRACE(col.kind);
    ASSERT_GT(col.length, 8u);
    std::string damaged = image;
    damaged[col.offset + col.length / 2] ^= 0x10;
    write_file(scratch, damaged);
    try {
      (void)synth::load_dataset_binary(scratch);
      ADD_FAILURE() << "damaged column loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

// A hostile section count must fail the header check before any
// table-sized allocation is attempted.
TEST_F(BinaryFuzz, OversizedSectionCountRejected) {
  const auto scratch = temp_path("ltds_sections.bin");
  std::string image;
  const std::uint32_t header[4] = {synth::kDatasetBinaryMagic,
                                   synth::kDatasetBinaryVersion, 0xFFFFFFFFu,
                                   0};
  image.append(reinterpret_cast<const char*>(header), sizeof(header));
  image.append(4096, '\0');  // plausible-looking body
  write_file(scratch, image);
  EXPECT_THROW((void)synth::load_dataset_binary(scratch), std::runtime_error);
}

// Same guard one notch lower: a count above kMaxSections but small enough
// that the table allocation would "work" must still be rejected.
TEST_F(BinaryFuzz, SectionCountJustOverCapRejected) {
  const auto scratch = temp_path("ltds_sections_cap.bin");
  std::string image;
  const std::uint32_t header[4] = {synth::kDatasetBinaryMagic,
                                   synth::kDatasetBinaryVersion,
                                   telemetry::kMaxSections + 1, 0};
  image.append(reinterpret_cast<const char*>(header), sizeof(header));
  image.append(65 * 40 + 8, '\0');
  write_file(scratch, image);
  EXPECT_THROW((void)synth::load_dataset_binary(scratch), std::runtime_error);
}

// ------------------------------------------------------- JSON fuzzing
//
// trace_report and bench_compare read JSON that may come from anywhere.
// Every input must parse to a value or fail with a typed
// std::runtime_error — never crash, hang, or overflow the stack. Mutants
// are sampled like the binary images above.

class JsonFuzz : public ::testing::Test {
 protected:
  // Any exception other than std::runtime_error escapes and fails the
  // test; so does a crash.
  static void parse_or_reject(const std::string& text) {
    try {
      (void)util::json::parse(text);
    } catch (const std::runtime_error&) {
    }
  }

  // Every sampled single-bit flip yields a value or a typed error; every
  // sampled truncation of the document, trailing whitespace aside, is an
  // error.
  static void fuzz_document(std::string doc) {
    ASSERT_NO_THROW((void)util::json::parse(doc));
    doc.erase(doc.find_last_not_of(" \t\r\n") + 1);
    for (const std::size_t at : sample_positions(doc.size(), 192)) {
      for (const unsigned bit : {0u, 1u, 5u, 7u}) {
        std::string damaged = doc;
        damaged[at] = static_cast<char>(damaged[at] ^ (1u << bit));
        parse_or_reject(damaged);
      }
    }
    for (const std::size_t len : sample_positions(doc.size(), 128))
      EXPECT_THROW((void)util::json::parse(doc.substr(0, len)),
                   std::runtime_error)
          << "truncation to " << len << " bytes parsed";
  }
};

TEST_F(JsonFuzz, RandomBytesYieldValueOrTypedError) {
  util::Rng rng(4321);
  for (int i = 0; i < 256; ++i) parse_or_reject(random_bytes(rng, 4096));
  // Bytes drawn from the JSON alphabet reach far deeper into the parser.
  constexpr std::string_view kAlphabet = "{}[]\":,-+.0123456789eEtrufalsn\\ ";
  for (int i = 0; i < 256; ++i) {
    std::string text;
    const auto len = rng.uniform(512);
    for (std::size_t k = 0; k < len; ++k)
      text += kAlphabet[rng.uniform(kAlphabet.size())];
    parse_or_reject(text);
  }
}

TEST_F(JsonFuzz, RenderedTraceMutantsYieldValueOrTypedError) {
  util::trace::set_enabled(true);
  util::trace::reset_for_testing();
  {
    util::trace::Span outer("fuzz.outer", "detail \"quoted\"\ttab\nline");
    LONGTAIL_TRACE_SPAN("fuzz.inner");
    util::trace::instant("fuzz.marker");
  }
  const std::string trace = util::trace::render_json();
  util::trace::reset_for_testing();
  util::trace::set_enabled(false);
  fuzz_document(trace);
}

TEST_F(JsonFuzz, BenchBaselineMutantsYieldValueOrTypedError) {
  std::ifstream in(std::string(LONGTAIL_SOURCE_DIR) +
                   "/bench/baselines/BENCH_pipeline.baseline.json");
  ASSERT_TRUE(in.good());
  const std::string baseline{std::istreambuf_iterator<char>(in), {}};
  fuzz_document(baseline);
}

}  // namespace
}  // namespace longtail

#include "telemetry/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/annotated.hpp"
#include "core/pipeline.hpp"
#include "synth/dataset_io.hpp"
#include "synth/generator.hpp"
#include "tests/temp_dir.hpp"

namespace longtail::telemetry {
namespace {

const synth::Dataset& small_dataset() {
  static const synth::Dataset ds = synth::generate_dataset(0.01);
  return ds;
}

// The CorpusBinary cases check the corpus sections of an LTDS file, the
// one binary format.
TEST(CorpusBinary, RoundTripPreservesEverything) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("corpus.bin");
  synth::save_dataset_binary(ds, path);
  const Corpus loaded = synth::load_dataset_binary(path).corpus;

  EXPECT_EQ(loaded.events, ds.corpus.events);
  EXPECT_EQ(loaded.machine_count, ds.corpus.machine_count);
  EXPECT_EQ(loaded.files.size(), ds.corpus.files.size());
  EXPECT_EQ(loaded.processes.size(), ds.corpus.processes.size());
  EXPECT_EQ(loaded.urls.size(), ds.corpus.urls.size());
  EXPECT_EQ(loaded.domains.size(), ds.corpus.domains.size());
  EXPECT_EQ(corpus_fingerprint(loaded), corpus_fingerprint(ds.corpus));
}

TEST(CorpusBinary, MissingFileThrows) {
  EXPECT_THROW((void)synth::load_dataset_binary(
                   "/nonexistent/longtail_corpus.bin"),
               std::runtime_error);
}

TEST(CorpusBinary, TruncatedFileThrows) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("truncated.bin");
  synth::save_dataset_binary(ds, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW((void)synth::load_dataset_binary(path), std::runtime_error);
}

TEST(CorpusBinary, CorruptedPayloadFailsFingerprintCheck) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("corrupt.bin");
  synth::save_dataset_binary(ds, path);
  {
    // Flip one byte well past the header (magic, version, section count
    // and a reserved word are the first 16 bytes).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char b = 0;
    f.read(&b, 1);
    f.seekp(64);
    b = static_cast<char>(b ^ 0x5A);
    f.write(&b, 1);
  }
  EXPECT_THROW((void)synth::load_dataset_binary(path), std::runtime_error);
}

TEST(CorpusBinary, BadMagicThrows) {
  const test::TempDir dir;
  const auto path = dir.file("bad_magic.bin");
  std::ofstream out(path, std::ios::binary);
  // Long enough to pass the size check, so the header's magic check is
  // what rejects it.
  const std::uint32_t junk[16] = {0xDEADBEEF, 1, 0, 0};
  out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  out.close();
  try {
    (void)synth::load_dataset_binary(path);
    ADD_FAILURE() << "bad magic loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(DatasetBinary, RoundTripPreservesDatasetFingerprint) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("dataset.bin");
  synth::save_dataset_binary(ds, path);
  const synth::Dataset loaded = synth::load_dataset_binary(path);

  EXPECT_EQ(core::dataset_fingerprint(loaded), core::dataset_fingerprint(ds));
  EXPECT_EQ(loaded.corpus.events, ds.corpus.events);
  EXPECT_EQ(loaded.profile.scale, ds.profile.scale);
  EXPECT_EQ(loaded.profile.seed, ds.profile.seed);
  EXPECT_EQ(loaded.profile.sigma, ds.profile.sigma);
  EXPECT_EQ(loaded.truth.file_intended, ds.truth.file_intended);
  EXPECT_EQ(loaded.whitelist.files().size(), ds.whitelist.files().size());
  EXPECT_EQ(loaded.vt.file_report_count(), ds.vt.file_report_count());
  EXPECT_EQ(loaded.collection_stats.accepted, ds.collection_stats.accepted);
}

TEST(DatasetBinary, ReloadedDatasetAnnotatesIdentically) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("dataset_annotate.bin");
  synth::save_dataset_binary(ds, path);
  const synth::Dataset loaded = synth::load_dataset_binary(path);

  const auto a1 = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
  const auto a2 =
      analysis::annotate(loaded.corpus, loaded.whitelist, loaded.vt);
  EXPECT_EQ(a1.labels.file_verdicts, a2.labels.file_verdicts);
  EXPECT_EQ(a1.labels.process_verdicts, a2.labels.process_verdicts);
  EXPECT_EQ(a1.file_types, a2.file_types);
}

// The loader accepts exactly version 3. Copies of a v3 file whose
// version word (bytes 4-7) claims the retired version 2 or an unknown
// version 4 must fail with the header's typed version error, before any
// section is read.
TEST(DatasetBinary, RetiredAndUnknownVersionsAreRejected) {
  const test::TempDir dir;
  const auto path = dir.file("v3.bin");
  synth::save_dataset_binary(small_dataset(), path);
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(image.size(), 8u);
  for (const std::uint32_t version : {2u, 4u}) {
    std::memcpy(image.data() + 4, &version, sizeof version);
    const auto patched = dir.file("v" + std::to_string(version) + ".bin");
    std::ofstream(patched, std::ios::binary) << image;
    try {
      (void)synth::load_dataset_binary(patched);
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported binary version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

// A corpus whose checksums and fingerprint are valid but one of whose ids
// is past its table must fail the loader with a message naming the column
// and the id; the index and annotation layers would write through that id
// unchecked.
void expect_loader_rejects(const synth::Dataset& ds,
                           const std::string& column_and_id) {
  const test::TempDir dir;
  const auto ltds = dir.file("dataset.ltds");
  synth::save_dataset_binary(ds, ltds);
  try {
    (void)synth::load_dataset_binary(ltds);
    ADD_FAILURE() << "load_dataset_binary accepted " << column_and_id;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(column_and_id), std::string::npos)
        << e.what();
  }
}

// small_dataset() with `mutate` applied to its middle event.
template <typename Mutate>
synth::Dataset with_middle_event(Mutate mutate) {
  synth::Dataset ds = small_dataset();
  const EventStore& original = ds.corpus.events;
  EventStore events;
  events.reserve(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    model::DownloadEvent e = original[i];
    if (i == original.size() / 2) mutate(e);
    events.push_back(e);
  }
  ds.corpus.events = std::move(events);
  return ds;
}

std::uint32_t size32(std::size_t n) { return static_cast<std::uint32_t>(n); }

TEST(CorpusIds, EventFileIdPastTheFileTableIsRejected) {
  const std::uint32_t id = size32(small_dataset().corpus.files.size());
  expect_loader_rejects(
      with_middle_event([&](auto& e) { e.file = model::FileId{id}; }),
      "event file id " + std::to_string(id));
}

TEST(CorpusIds, EventMachineIdAtMachineCountIsRejected) {
  const std::uint32_t id = small_dataset().corpus.machine_count;
  expect_loader_rejects(
      with_middle_event([&](auto& e) { e.machine = model::MachineId{id}; }),
      "event machine id " + std::to_string(id));
}

TEST(CorpusIds, EventProcessIdPastTheProcessTableIsRejected) {
  const std::uint32_t id = size32(small_dataset().corpus.processes.size());
  expect_loader_rejects(
      with_middle_event([&](auto& e) { e.process = model::ProcessId{id}; }),
      "event process id " + std::to_string(id));
}

TEST(CorpusIds, EventUrlIdPastTheUrlTableIsRejected) {
  const std::uint32_t id = size32(small_dataset().corpus.urls.size());
  expect_loader_rejects(
      with_middle_event([&](auto& e) { e.url = model::UrlId{id}; }),
      "event url id " + std::to_string(id));
}

TEST(CorpusIds, UrlDomainIdPastTheDomainTableIsRejected) {
  synth::Dataset ds = small_dataset();
  const std::uint32_t id = size32(ds.corpus.domains.size());
  ds.corpus.urls[ds.corpus.urls.size() / 2].domain = model::DomainId{id};
  expect_loader_rejects(ds, "url domain id " + std::to_string(id));
}

}  // namespace
}  // namespace longtail::telemetry

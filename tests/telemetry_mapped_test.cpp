#include "telemetry/mapped.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/pipeline.hpp"
#include "synth/dataset_io.hpp"
#include "synth/generator.hpp"
#include "telemetry/binary.hpp"
#include "telemetry/scan.hpp"
#include "tests/temp_dir.hpp"
#include "util/thread_pool.hpp"

namespace longtail::telemetry {
namespace {

const synth::Dataset& small_dataset() {
  static const synth::Dataset ds = synth::generate_dataset(0.01);
  return ds;
}

// Path of an LTCP file holding small_dataset()'s corpus, written once per
// process into a directory removed at exit.
const std::string& corpus_path() {
  static const test::TempDir dir;
  static const std::string path = [] {
    const auto p = dir.file("corpus.ltcp");
    save_binary(small_dataset().corpus, p);
    return p;
  }();
  return path;
}

// Order-dependent event checksum shared by the determinism tests below.
std::uint64_t scan_checksum(const Corpus& corpus) {
  struct Acc {
    std::uint64_t h = 0;
  };
  return scan_reduce(
             corpus, [] { return Acc{}; },
             [](Acc& acc, const EventStore::EventRef& ev) {
               acc.h = acc.h * 1'000'003 +
                       static_cast<std::uint64_t>(ev.time()) +
                       ev.url().raw() + ev.file().raw() * 31 +
                       ev.machine().raw() * 7 + ev.process().raw() * 3;
             },
             [](Acc& t, Acc&& s) { t.h = t.h * 16'777'619 + s.h; },
             "mapped_test")
      .h;
}

TEST(MappedCorpus, OpenServesZeroCopyEvents) {
  const auto mapped = MappedCorpus::open(corpus_path());
  EXPECT_TRUE(mapped.events().mapped());
  EXPECT_EQ(mapped.events(), small_dataset().corpus.events);
  EXPECT_EQ(mapped.file_bytes(),
            std::filesystem::file_size(corpus_path()));
}

TEST(MappedCorpus, StoredMetaMatchesOriginal) {
  const auto& corpus = small_dataset().corpus;
  const auto mapped = MappedCorpus::open(corpus_path());
  EXPECT_EQ(mapped.stored_fingerprint(), corpus_fingerprint(corpus));
  EXPECT_EQ(mapped.machine_count(), corpus.machine_count);
}

TEST(MappedCorpus, LazyTablesAndNamePoolsMatchOriginal) {
  const auto& corpus = small_dataset().corpus;
  const auto mapped = MappedCorpus::open(corpus_path());

  ASSERT_EQ(mapped.files().size(), corpus.files.size());
  ASSERT_EQ(mapped.processes().size(), corpus.processes.size());
  ASSERT_EQ(mapped.urls().size(), corpus.urls.size());
  ASSERT_EQ(mapped.domains().size(), corpus.domains.size());

  ASSERT_EQ(mapped.domain_names().size(), corpus.domain_names.size());
  ASSERT_EQ(mapped.signer_names().size(), corpus.signer_names.size());
  ASSERT_EQ(mapped.ca_names().size(), corpus.ca_names.size());
  ASSERT_EQ(mapped.packer_names().size(), corpus.packer_names.size());
  ASSERT_EQ(mapped.family_names().size(), corpus.family_names.size());
  ASSERT_EQ(mapped.process_names().size(), corpus.process_names.size());
  for (std::uint32_t id = 0; id < corpus.domain_names.size(); ++id)
    EXPECT_EQ(mapped.domain_names().at(id), corpus.domain_names.at(id));
  for (std::uint32_t id = 0; id < corpus.process_names.size(); ++id)
    EXPECT_EQ(mapped.process_names().at(id), corpus.process_names.at(id));
}

// The headline equivalence: a materialized mapped corpus is
// fingerprint-identical to the corpus that was saved, and its events stay
// zero-copy views (metadata owned, columns mapped).
TEST(MappedCorpus, MaterializePreservesFingerprint) {
  const auto mapped = MappedCorpus::open(corpus_path());
  const Corpus owned_view = mapped.materialize();
  EXPECT_TRUE(owned_view.events.mapped());
  EXPECT_EQ(corpus_fingerprint(owned_view),
            corpus_fingerprint(small_dataset().corpus));
}

// The materialized value must outlive the handle it came from (the
// mapping is pinned by a shared keepalive).
TEST(MappedCorpus, MaterializedCorpusOutlivesHandle) {
  Corpus survivor;
  {
    const auto mapped = MappedCorpus::open(corpus_path());
    survivor = mapped.materialize();
  }
  EXPECT_EQ(corpus_fingerprint(survivor),
            corpus_fingerprint(small_dataset().corpus));
}

TEST(MappedCorpus, VerifyAllAcceptsIntactFile) {
  const auto mapped = MappedCorpus::open(corpus_path());
  EXPECT_NO_THROW(mapped.verify_all());
}

// Mapped and owned loads must scan to the same checksum at every thread
// count — the scan layer shards identically over views and owned columns.
TEST(MappedCorpus, ScanMatchesOwnedLoadAcrossThreadCounts) {
  const Corpus owned = load_binary(corpus_path());
  const std::uint64_t expected = scan_checksum(owned);
  const auto mapped = MappedCorpus::open(corpus_path());
  const Corpus view = mapped.materialize();
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    EXPECT_EQ(scan_checksum(view), expected) << "threads=" << threads;
  }
  util::set_global_threads(util::ThreadPool::default_threads());
}

// release_events_before drops resident pages, not data: a full re-scan
// afterwards faults them back in and produces the identical checksum.
TEST(MappedCorpus, ReleaseEventsBeforeKeepsDataReadable) {
  const auto mapped = MappedCorpus::open(corpus_path());
  const Corpus view = mapped.materialize();
  const std::uint64_t before = scan_checksum(view);
  mapped.release_events_before(view.events.size() / 2);
  mapped.release_events_before(view.events.size());
  EXPECT_EQ(scan_checksum(view), before);
}

TEST(MappedCorpus, OpenRejectsMissingFile) {
  EXPECT_THROW(MappedCorpus::open("/nonexistent/longtail.ltcp"),
               std::runtime_error);
}

TEST(MappedDataset, MappedLoadMatchesOwnedLoad) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("dataset_v3.ltds");
  synth::save_dataset_binary(ds, path);

  const synth::Dataset owned = synth::load_dataset_binary(path);
  const synth::Dataset mapped = synth::load_dataset_mapped(path);

  EXPECT_FALSE(owned.corpus.events.mapped());
  EXPECT_TRUE(mapped.corpus.events.mapped());
  EXPECT_EQ(core::dataset_fingerprint(mapped), core::dataset_fingerprint(ds));
  EXPECT_EQ(core::dataset_fingerprint(mapped),
            core::dataset_fingerprint(owned));
  EXPECT_EQ(mapped.corpus.events, owned.corpus.events);
  EXPECT_EQ(mapped.truth.file_intended, owned.truth.file_intended);
  EXPECT_EQ(mapped.whitelist.files().size(), owned.whitelist.files().size());
  EXPECT_EQ(mapped.vt.file_report_count(), owned.vt.file_report_count());
}

// The full pipeline must run unchanged over a mapped dataset and land on
// the same fingerprint as the in-memory original.
TEST(MappedDataset, PipelineRunsOverMappedEvents) {
  const auto& ds = small_dataset();
  const test::TempDir dir;
  const auto path = dir.file("dataset_pipeline.ltds");
  synth::save_dataset_binary(ds, path);
  const synth::Dataset mapped = synth::load_dataset_mapped(path);
  EXPECT_EQ(core::dataset_fingerprint(mapped), core::dataset_fingerprint(ds));
}

}  // namespace
}  // namespace longtail::telemetry

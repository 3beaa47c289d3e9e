#include "telemetry/io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "synth/generator.hpp"
#include "telemetry/index.hpp"
#include "tests/temp_dir.hpp"

namespace longtail::telemetry {
namespace {

TEST(CorpusIo, RoundTripsGeneratedCorpus) {
  const auto ds = synth::generate_dataset(0.01);
  const test::TempDir tmp;
  const auto dir = tmp.file("corpus");
  export_corpus(ds.corpus, dir);
  const Corpus loaded = import_corpus(dir);

  ASSERT_EQ(loaded.events.size(), ds.corpus.events.size());
  ASSERT_EQ(loaded.files.size(), ds.corpus.files.size());
  ASSERT_EQ(loaded.processes.size(), ds.corpus.processes.size());
  ASSERT_EQ(loaded.urls.size(), ds.corpus.urls.size());
  ASSERT_EQ(loaded.domains.size(), ds.corpus.domains.size());
  EXPECT_EQ(loaded.machine_count, ds.corpus.machine_count);

  for (std::size_t i = 0; i < loaded.events.size(); i += 53) {
    EXPECT_EQ(loaded.events[i].file(), ds.corpus.events[i].file());
    EXPECT_EQ(loaded.events[i].machine(), ds.corpus.events[i].machine());
    EXPECT_EQ(loaded.events[i].process(), ds.corpus.events[i].process());
    EXPECT_EQ(loaded.events[i].url(), ds.corpus.events[i].url());
    EXPECT_EQ(loaded.events[i].time(), ds.corpus.events[i].time());
  }
  for (std::size_t i = 0; i < loaded.files.size(); i += 97) {
    const auto& a = loaded.files[i];
    const auto& b = ds.corpus.files[i];
    EXPECT_EQ(a.sha, b.sha);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.is_signed, b.is_signed);
    if (a.is_signed) {
      EXPECT_EQ(a.signer, b.signer);
      EXPECT_EQ(a.ca, b.ca);
    }

    EXPECT_EQ(a.is_packed, b.is_packed);
    if (a.is_packed) {
      EXPECT_EQ(a.packer, b.packer);
    }
  }
  for (std::size_t i = 0; i < loaded.processes.size(); i += 31) {
    EXPECT_EQ(loaded.processes[i].category, ds.corpus.processes[i].category);
    EXPECT_EQ(loaded.processes[i].browser, ds.corpus.processes[i].browser);
  }
  for (std::size_t i = 0; i < loaded.domains.size(); i += 13) {
    EXPECT_EQ(loaded.domains[i].alexa_rank, ds.corpus.domains[i].alexa_rank);
    EXPECT_EQ(loaded.domains[i].on_gsb, ds.corpus.domains[i].on_gsb);
  }
  // Name pools survive with identical ids.
  EXPECT_EQ(loaded.signer_names.size(), ds.corpus.signer_names.size());
  for (std::uint32_t id = 0; id < loaded.signer_names.size(); id += 19)
    EXPECT_EQ(loaded.signer_names.at(id), ds.corpus.signer_names.at(id));
  EXPECT_EQ(loaded.domain_names.size(), ds.corpus.domain_names.size());
}

TEST(CorpusIo, ImportMissingDirectoryThrows) {
  EXPECT_THROW(import_corpus("/nonexistent/longtail"), std::runtime_error);
}

TEST(CorpusIo, ImportedCorpusSupportsIndexing) {
  const auto ds = synth::generate_dataset(0.01);
  const test::TempDir tmp;
  const auto dir = tmp.file("corpus");
  export_corpus(ds.corpus, dir);
  const Corpus loaded = import_corpus(dir);
  const CorpusIndex original(ds.corpus);
  const CorpusIndex reloaded(loaded);
  EXPECT_EQ(original.num_active_machines(), reloaded.num_active_machines());
  EXPECT_EQ(original.observed_files().size(),
            reloaded.observed_files().size());
}

}  // namespace
}  // namespace longtail::telemetry

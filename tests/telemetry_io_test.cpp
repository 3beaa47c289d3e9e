// Golden test of the TSV export: a hand-built corpus small enough to spell
// out every byte of every file export_corpus writes (the format table in
// telemetry/io.hpp).
#include "telemetry/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "tests/temp_dir.hpp"

namespace longtail::telemetry {
namespace {

// Two files (one signed and packed, one neither), one named process, two
// URLs on one domain and three events.
Corpus golden_corpus() {
  Corpus c;
  c.machine_count = 3;
  c.domain_names.intern("softonic.com");
  c.signer_names.intern("Somoto Ltd.");
  c.signer_names.intern("Softonic International");
  c.ca_names.intern("VeriSign Class 3");
  c.packer_names.intern("UPX");
  c.packer_names.intern("NSIS");
  c.family_names.intern("firseria");
  c.process_names.intern("chrome.exe");

  model::DomainMeta domain;
  domain.alexa_rank = 180;
  domain.on_private_blacklist = true;
  c.domains.push_back(domain);
  c.urls.push_back({model::DomainId{0}, 180});
  c.urls.push_back({model::DomainId{0}, 180});

  model::FileMeta packed;
  packed.sha = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  packed.size = 1'048'576;
  packed.is_signed = true;
  packed.signer = model::SignerId{1};
  packed.ca = model::CaId{0};
  packed.is_packed = true;
  packed.packer = model::PackerId{1};
  c.files.push_back(packed);
  model::FileMeta plain;
  plain.sha = {0xffULL, 0xabcdULL};
  plain.size = 4'096;
  c.files.push_back(plain);

  model::ProcessMeta chrome;
  chrome.sha = {0x1111222233334444ULL, 0x5555666677778888ULL};
  chrome.name = 0;
  chrome.category = model::ProcessCategory::kBrowser;
  chrome.browser = model::BrowserKind::kChrome;
  chrome.is_signed = true;
  chrome.signer = model::SignerId{0};
  chrome.ca = model::CaId{0};
  c.processes.push_back(chrome);

  const auto event = [](std::uint32_t file, std::uint32_t machine,
                        std::uint32_t url, model::Timestamp time) {
    return model::DownloadEvent{model::FileId{file}, model::MachineId{machine},
                                model::ProcessId{0}, model::UrlId{url}, time};
  };
  c.events.push_back(event(0, 0, 0, 1'420'070'400));
  c.events.push_back(event(1, 1, 1, 1'420'156'800));
  c.events.push_back(event(0, 2, 1, 1'422'748'800));
  return c;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(CorpusExport, WritesEveryTableByteForByte) {
  const test::TempDir tmp;
  const auto dir = tmp.file("corpus");
  export_corpus(golden_corpus(), dir);

  const std::map<std::string, std::string> expected = {
      {"meta.tsv", "machine_count\n3\n"},
      {"domain_names.tsv", "id\tname\n0\tsoftonic.com\n"},
      {"signers.tsv", "id\tname\n0\tSomoto Ltd.\n1\tSoftonic International\n"},
      {"cas.tsv", "id\tname\n0\tVeriSign Class 3\n"},
      {"packers.tsv", "id\tname\n0\tUPX\n1\tNSIS\n"},
      {"families.tsv", "id\tname\n0\tfirseria\n"},
      {"domains.tsv",
       "id\talexa_rank\tgsb\tblacklist\twhitelist\n"
       "0\t180\t0\t1\t0\n"},
      {"urls.tsv",
       "id\tdomain\talexa_rank\n"
       "0\t0\t180\n"
       "1\t0\t180\n"},
      {"files.tsv",
       "id\tsha\tsize\tsigned\tsigner\tca\tpacked\tpacker\n"
       "0\t0123456789abcdeffedcba9876543210\t1048576\t1\t1\t0\t1\t1\n"
       "1\t00000000000000ff000000000000abcd\t4096\t0\t-\t-\t0\t-\n"},
      {"process_names.tsv", "id\tname\n0\tchrome.exe\n"},
      {"processes.tsv",
       "id\tsha\tname\tcategory\tbrowser\tsigned\tsigner\tca\tpacked\t"
       "packer\n"
       "0\t11112222333344445555666677778888\t0\t0\t1\t1\t0\t0\t0\t-\n"},
      {"events.tsv",
       "file\tmachine\tprocess\turl\ttime\n"
       "0\t0\t0\t0\t1420070400\n"
       "1\t1\t0\t1\t1420156800\n"
       "0\t2\t0\t1\t1422748800\n"},
  };

  std::map<std::string, std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    written[entry.path().filename().string()] = read_file(entry.path());
  for (const auto& [name, bytes] : expected) {
    SCOPED_TRACE(name);
    const auto it = written.find(name);
    ASSERT_NE(it, written.end()) << "not written";
    EXPECT_EQ(it->second, bytes);
  }
  EXPECT_EQ(written.size(), expected.size()) << "unexpected extra files";
}

}  // namespace
}  // namespace longtail::telemetry

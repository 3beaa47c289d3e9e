#include "avclass/avclass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataset_fixture.hpp"
#include "groundtruth/avsim.hpp"

namespace longtail::avclass {
namespace {

using groundtruth::VtReport;

// Reference AVclass, written the direct way: a fresh lowercase
// std::string per token, <cctype> classification, a linear scan of the
// generic list, votes in a std::map and one std::set per detection. The
// library's one-pass tokenizer must agree with it on every label.
namespace reference {

constexpr std::array<std::string_view, 54> kGenericTokens = {
    "adware",     "agent",    "application", "artemis",   "autorun",
    "backdoor",   "banker",   "behaveslike", "bundler",   "crypt",
    "dangerousobject", "dloadr", "downloader", "dynamer",  "fakealert",
    "fakeav",     "generic",  "graftor",     "heur",      "heuristic",
    "infostealer","keylog",   "kryptik",     "malware",   "multi",
    "notavirus",  "packed",   "program",     "ransom",    "riskware",
    "rogue",      "softwarebundler", "spyware", "suspicious", "trojan",
    "trojandownloader", "trojanspy", "unsafe", "unwanted", "variant",
    "virus",      "webtoolbar", "win32",     "win64",     "worm",
    "xpack",      "gen",      "troj",        "tspy",      "bkdr",
    "dldr",       "pua",      "pup",         "pws",
};

struct Alias {
  std::string_view from;
  std::string_view to;
};
constexpr std::array<Alias, 6> kAliases = {{
    {"zeus", "zbot"},
    {"zeusbot", "zbot"},
    {"kazy", "cerber"},
    {"swizzor", "obfuscated"},
    {"installerex", "webpick"},
    {"multiplug", "plugin"},
}};

std::string resolve_alias(const std::string& token) {
  for (const auto& a : kAliases)
    if (token == a.from) return std::string(a.to);
  return token;
}

std::vector<std::string> candidate_tokens(std::string_view label) {
  std::vector<std::string> out;
  std::string current;
  bool has_digit = false;
  auto flush = [&] {
    if (!has_digit && current.size() >= 4 &&
        std::find(kGenericTokens.begin(), kGenericTokens.end(), current) ==
            kGenericTokens.end())
      out.push_back(resolve_alias(current));
    current.clear();
    has_digit = false;
  };
  for (char raw : label) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalpha(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (std::isdigit(c)) {
      has_digit = true;
    } else {
      flush();
    }
  }
  flush();
  return out;
}

FamilyResult derive(const VtReport& report, int min_support = 2) {
  std::map<std::string, int> votes;
  for (const auto& det : report.detections) {
    std::set<std::string> seen;
    for (auto& token : candidate_tokens(det.label)) {
      if (seen.insert(token).second) ++votes[token];
    }
  }
  FamilyResult result;
  for (const auto& [token, count] : votes) {
    if (count > result.support ||
        (count == result.support && token < result.family)) {
      result.family = token;
      result.support = count;
    }
  }
  if (result.support < min_support) return {};
  return result;
}

}  // namespace reference

VtReport report_with(std::initializer_list<groundtruth::EngineDetection> dets) {
  VtReport r;
  r.detections = dets;
  return r;
}

TEST(CandidateTokens, ExtractsFamilyDropsGenerics) {
  const auto tokens =
      FamilyExtractor::candidate_tokens("Trojan-Spy.Win32.Zbot.ruxa");
  ASSERT_FALSE(tokens.empty());
  // "trojan", "spy" (short), "win32" (generic+digit) all dropped.
  EXPECT_EQ(tokens.size(), 2u);  // zbot, ruxa
  EXPECT_EQ(tokens[0], "zbot");
}

TEST(CandidateTokens, DropsTokensWithDigits) {
  const auto tokens =
      FamilyExtractor::candidate_tokens("Downloader-FYH!6C7411D1C043");
  EXPECT_TRUE(tokens.empty());
}

TEST(CandidateTokens, DropsShortTokens) {
  EXPECT_TRUE(FamilyExtractor::candidate_tokens("W32.Abc!tr").empty());
}

TEST(CandidateTokens, ResolvesAliases) {
  const auto tokens = FamilyExtractor::candidate_tokens("Trojan.Zeus");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "zbot");
}

TEST(CandidateTokens, GenericOnlyLabelYieldsNothing) {
  EXPECT_TRUE(FamilyExtractor::candidate_tokens("Artemis!AB12").empty());
  EXPECT_TRUE(
      FamilyExtractor::candidate_tokens("UDS:DangerousObject.Multi.Generic")
          .empty());
  EXPECT_TRUE(FamilyExtractor::candidate_tokens("Gen:Variant.Graftor.55")
                  .empty());
}

TEST(FamilyExtractor, PluralityAcrossEngines) {
  const auto r = report_with({
      {0, "PWS:Win32/Zbot.aa"},
      {1, "Trojan.Zbot"},
      {3, "Trojan-Spy.Win32.Zbot.ruxa"},
      {4, "Artemis!DEC3771868CB"},
  });
  const auto result = FamilyExtractor().derive(r);
  EXPECT_TRUE(result.resolved());
  EXPECT_EQ(result.family, "zbot");
  EXPECT_EQ(result.support, 3);
}

TEST(FamilyExtractor, RequiresMinimumSupport) {
  const auto r = report_with({
      {0, "Trojan:Win32/Firseria.a"},
      {4, "Artemis!AB"},
  });
  const auto result = FamilyExtractor(/*min_support=*/2).derive(r);
  EXPECT_FALSE(result.resolved());
}

TEST(FamilyExtractor, SingleEngineSupportWithThresholdOne) {
  const auto r = report_with({{0, "Trojan:Win32/Firseria.a"}});
  const auto result = FamilyExtractor(/*min_support=*/1).derive(r);
  EXPECT_TRUE(result.resolved());
  EXPECT_EQ(result.family, "firseria");
}

TEST(FamilyExtractor, GenericReportsResolveToNothing) {
  const auto r = report_with({
      {4, "Artemis!AA"},
      {20, "Gen:Variant.Graftor.10"},
      {25, "Mal/Generic-S"},
  });
  EXPECT_FALSE(FamilyExtractor().derive(r).resolved());
}

TEST(FamilyExtractor, EngineVotesOncePerToken) {
  // One engine repeating a token must not reach min_support=2.
  const auto r = report_with({{0, "Trojan:Win32/Firseria.Firseria"}});
  EXPECT_FALSE(FamilyExtractor().derive(r).resolved());
}

TEST(FamilyExtractor, EndToEndWithGeneratedLabels) {
  // Labels generated by the AV simulator for a family-extractable sample
  // should resolve to that family.
  VtReport r;
  for (std::uint16_t e = 0; e < 8; ++e)
    r.detections.push_back(
        {e, groundtruth::render_engine_label(e, model::MalwareType::kTrojan,
                                             "upatre", true, 100 + e)});
  const auto result = FamilyExtractor().derive(r);
  EXPECT_TRUE(result.resolved());
  EXPECT_EQ(result.family, "upatre");
}

void expect_matches_reference(const VtReport& report) {
  for (const auto& det : report.detections)
    EXPECT_EQ(FamilyExtractor::candidate_tokens(det.label),
              reference::candidate_tokens(det.label))
        << det.label;
  for (const int min_support : {1, 2, 3}) {
    const auto got = FamilyExtractor(min_support).derive(report);
    const auto want = reference::derive(report, min_support);
    EXPECT_EQ(got.family, want.family) << "min_support=" << min_support;
    EXPECT_EQ(got.support, want.support) << "min_support=" << min_support;
  }
}

TEST(FamilyExtractorReference, MatchesOnEveryGeneratedReport) {
  const auto& ds = test::shared_pipeline(0.02).dataset();
  std::size_t reports = 0;
  std::size_t resolved = 0;
  const auto check = [&](const std::optional<VtReport>& report) {
    if (!report.has_value()) return;
    ++reports;
    expect_matches_reference(*report);
    resolved += FamilyExtractor().derive(*report).resolved();
  };
  for (std::uint32_t f = 0; f < ds.corpus.files.size(); ++f)
    check(ds.vt.query(model::FileId{f}));
  for (std::uint32_t p = 0; p < ds.corpus.processes.size(); ++p)
    check(ds.vt.query(model::ProcessId{p}));
  // The corpus exercises both outcomes of the vote.
  EXPECT_GT(reports, 1000u);
  EXPECT_GT(resolved, 100u);
  EXPECT_LT(resolved, reports);
}

// Labels no AV engine in the simulator emits, aimed at the tokenizer's
// edges: separators, non-ASCII bytes, case, digits, token length around
// the stack buffer, and alias and generic tokens at both ends.
std::vector<std::string> hostile_labels() {
  std::vector<std::string> labels = {
      "",
      ".",
      "...---///!!  ::",
      "Tro\xC3\xA9jan.Zb\xFFot.Fam\x80ilyName",
      "\xE9\xE9\xE9\xE9.\xC0\xC1\xC2\xC3\xC4",
      std::string("Caf\xE9") + "Firseria\xE9Upatre",
      "TrOjAn.ZbOt.FiRsErIa",
      "UPATRE!UPATRE.upatre",
      "Zb0t.Abcd1efg.Firseria9.9Upatre",
      "abc.abcd.ABCDE",
      "Abcd@Efgh[Ijkl`Mnop{Qrst",
      std::string("Zbot\0Firseria", 13),
      "Zeus.Firseria.Kazy",
      "ZEUSBOT:Installerex/Multiplug",
      "Multiplug",
      "Generic.Firseria.Trojan",
      "Trojan",
      "Swizzor.Swizzor.Obfuscated",
      std::string(300, 'q'),
      "Trojan." + std::string(150, 'Z') + std::string(150, 'b') + ".Zeus",
      std::string(32, 'K'),
      std::string(33, 'K'),
      std::string(31, 'k') + "." + std::string(34, 'M'),
      "W32/" + std::string(299, 'x') + "1",
  };
  return labels;
}

TEST(FamilyExtractorReference, MatchesOnHostileLabels) {
  const auto labels = hostile_labels();
  for (const auto& label : labels) {
    SCOPED_TRACE(label);
    // One engine, then the same label from two engines (meets the default
    // minimum support).
    VtReport report;
    report.detections.push_back({0, label});
    expect_matches_reference(report);
    report.detections.push_back({1, label});
    expect_matches_reference(report);
  }
  // All the labels in one report: many distinct tokens, repeats within
  // and across engines, and vote ties broken by the smallest token.
  VtReport all;
  for (std::size_t i = 0; i < labels.size(); ++i)
    all.detections.push_back({static_cast<std::uint16_t>(i), labels[i]});
  expect_matches_reference(all);
}

TEST(FamilyExtractorReference, LongTokensSurviveWhole) {
  // A token longer than the tokenizer's stack buffer is lowercased whole,
  // never dropped or cut.
  const std::string long_token(300, 'Q');
  const auto tokens =
      FamilyExtractor::candidate_tokens("Trojan." + long_token + ".Zeus");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], std::string(300, 'q'));
  EXPECT_EQ(tokens[1], "zbot");

  VtReport report;
  report.detections.push_back({0, long_token});
  report.detections.push_back({1, "W32." + long_token + "!tr"});
  const auto result = FamilyExtractor().derive(report);
  EXPECT_EQ(result.family, std::string(300, 'q'));
  EXPECT_EQ(result.support, 2);
}

TEST(FamilyExtractorReference, TiesGoToTheSmallestToken) {
  VtReport report;
  report.detections.push_back({0, "Trojan.Upatre.Firseria"});
  report.detections.push_back({1, "Firseria.Upatre"});
  const auto result = FamilyExtractor().derive(report);
  EXPECT_EQ(result.family, "firseria");
  EXPECT_EQ(result.support, 2);
  expect_matches_reference(report);
}

}  // namespace
}  // namespace longtail::avclass

// File-signing analysis (§IV-C):
//   * Table VI   — % of signed files per class/type, overall and among
//                  files downloaded via web browsers;
//   * Table VII  — distinct signers per malicious type and their overlap
//                  with benign-file signers;
//   * Table VIII — top signers per type (common-with-benign vs exclusive);
//   * Table IX   — top signers that exclusively sign benign or malicious;
//   * Fig. 4     — per-signer benign/malicious file counts.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/annotated.hpp"

namespace longtail::analysis {

struct SignedRateRow {
  std::uint64_t files = 0;
  double signed_pct = 0;
  std::uint64_t browser_files = 0;
  double browser_signed_pct = 0;

  friend bool operator==(const SignedRateRow&, const SignedRateRow&) = default;
};

struct SigningRates {
  std::array<SignedRateRow, model::kNumMalwareTypes> per_type{};
  SignedRateRow benign, unknown, malicious;

  friend bool operator==(const SigningRates&, const SigningRates&) = default;
};

SigningRates signing_rates(const AnnotatedCorpus& a);

// The finisher behind the batch call above (which passes
// `a.index.reach()`) and the streaming snapshot (analysis/streaming.hpp):
// every file `reach` has seen, under `a`'s labels, with the via-browser
// column taken from `reach`.
SigningRates signing_rates(const AnnotatedCorpus& a,
                           const telemetry::FileReach& reach);

struct SignerOverlapRow {
  std::uint64_t signers = 0;            // distinct signers for this type
  std::uint64_t common_with_benign = 0; // of those, also sign benign files
};

struct SignerOverlap {
  std::array<SignerOverlapRow, model::kNumMalwareTypes> per_type{};
  SignerOverlapRow total;  // across all malicious files
};

SignerOverlap signer_overlap(const AnnotatedCorpus& a);

using SignerCount = std::pair<std::string_view, std::uint64_t>;

struct TopSigners {
  // Per malicious type: top signers overall, top in common with benign,
  // top exclusive to malware.
  struct Row {
    std::vector<SignerCount> top;
    std::vector<SignerCount> top_common;
    std::vector<SignerCount> top_exclusive;
  };
  std::array<Row, model::kNumMalwareTypes> per_type{};
  Row malicious_total;
  std::vector<SignerCount> top_benign_exclusive;   // Table IX left
  std::vector<SignerCount> top_malicious_exclusive;  // Table IX right
};

TopSigners top_signers(const AnnotatedCorpus& a, std::size_t top_k = 3,
                       std::size_t table9_k = 10);

// Fig. 4: signers that sign both benign and malicious files, with both
// counts, ordered by total volume.
struct CommonSignerPoint {
  std::string_view signer;
  std::uint64_t benign_files = 0;
  std::uint64_t malicious_files = 0;
};

std::vector<CommonSignerPoint> common_signers(const AnnotatedCorpus& a,
                                              std::size_t top_k = 20);

}  // namespace longtail::analysis

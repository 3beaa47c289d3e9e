// AVclass-style malware family extraction (Sebastián et al., RAID 2016),
// as used by the paper to produce Figure 1.
//
// The core labeling pass: normalize every engine's label, tokenize it,
// drop generic and type tokens, resolve aliases, then pick the token named
// by the most engines (plurality, minimum two engines). The paper reports
// AVclass recovered a family for only 42% of its malicious samples — the
// other 58% carry only generic labels.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "groundtruth/vt.hpp"

namespace longtail::avclass {

struct FamilyResult {
  // Lowercase family token, empty if no family could be derived.
  std::string family;
  // Number of engines that voted for the winning token.
  int support = 0;

  [[nodiscard]] bool resolved() const noexcept { return !family.empty(); }
};

class FamilyExtractor {
 public:
  // `min_support`: minimum number of engines that must agree on a token
  // (AVclass default: 2).
  explicit FamilyExtractor(int min_support = 2) : min_support_(min_support) {}

  [[nodiscard]] FamilyResult derive(const groundtruth::VtReport& report) const;

  // Exposed for tests: tokenize one label into candidate family tokens
  // (lowercased, generic tokens dropped, aliases resolved).
  [[nodiscard]] static std::vector<std::string> candidate_tokens(
      std::string_view label);

 private:
  int min_support_;
};

}  // namespace longtail::avclass

// Table XV: the eight easy-to-measure categorical features used by the
// rule-based classifier (§VI-B):
//
//   file signer / file CA / file packer — from static file analysis;
//   process signer / CA / packer / type — properties of the downloading
//                                         process;
//   Alexa bucket — the rank bucket of the download domain.
//
// Every feature is categorical. Absence is a first-class value
// ("not-signed", "not-packed", "unranked") — the paper's example rules
// test for it explicitly (e.g. "IF file is not signed AND downloading
// process is Acrobat Reader -> malicious").
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/annotated.hpp"
#include "model/event.hpp"
#include "util/interner.hpp"

namespace longtail::features {

enum class Feature : std::uint8_t {
  kFileSigner = 0,
  kFileCa,
  kFilePacker,
  kProcessSigner,
  kProcessCa,
  kProcessPacker,
  kProcessType,
  kAlexaBucket,
};
inline constexpr std::size_t kNumFeatures = 8;

constexpr std::string_view to_string(Feature f) {
  constexpr std::array<std::string_view, kNumFeatures> names = {
      "file's signer",          "file's CA",
      "file's packer",          "downloading process's signer",
      "downloading process's CA", "downloading process's packer",
      "downloading process's type", "Alexa rank of file's URL"};
  return names[static_cast<std::size_t>(f)];
}

// A feature vector: one interned value id per feature.
struct FeatureVector {
  std::array<std::uint32_t, kNumFeatures> values{};

  [[nodiscard]] std::uint32_t at(Feature f) const {
    return values[static_cast<std::size_t>(f)];
  }
  friend bool operator==(const FeatureVector&, const FeatureVector&) = default;
};

// Per-feature value vocabulary. One space is shared across training, test,
// and unknown datasets so value ids are comparable.
class FeatureSpace {
 public:
  std::uint32_t intern(Feature f, std::string_view value) {
    return values_[static_cast<std::size_t>(f)].intern(value);
  }
  [[nodiscard]] std::string_view name(Feature f, std::uint32_t id) const {
    return values_[static_cast<std::size_t>(f)].at(id);
  }
  [[nodiscard]] std::size_t cardinality(Feature f) const {
    return values_[static_cast<std::size_t>(f)].size();
  }

 private:
  std::array<util::StringInterner, kNumFeatures> values_;
};

// One labeled training/test instance: the feature vector of a file's first
// download event in the window.
struct Instance {
  FeatureVector x;
  bool malicious = false;  // ground-truth class (meaningless for unknowns)
  model::FileId file;
};

// Maps the Alexa rank of a domain to its bucket value (the paper's rules
// use ranges such as "between 10,000 to 100,000" and "above 100K").
std::string_view alexa_bucket(std::uint32_t rank);
inline constexpr std::size_t kNumAlexaBuckets = 6;

// Extracts feature vectors of download events into one FeatureSpace.
//
// Every value is a function of one corpus key — the signer, CA or packer
// id (or its absence), the downloading process, the Alexa bucket — so the
// extractor remembers the value id it got for each key and interns only
// on a miss. A value string is first seen at a miss, so misses intern the
// same strings at the same events in the same order as interning every
// value would: the ids are identical by construction.
//
// The caches hold ids of the bound space, so keep one extractor per
// space; the space may keep growing through other paths meanwhile.
class FeatureExtractor {
 public:
  FeatureExtractor(const analysis::AnnotatedCorpus& a, FeatureSpace& space);

  // Throws std::out_of_range if a signer, CA or packer id is outside its
  // corpus name pool.
  FeatureVector operator()(const model::DownloadEvent& e);

 private:
  static constexpr std::uint32_t kUnset = ~0u;

  // The value id of name feature `f` (a signer, CA or packer): the name
  // `id` in `names` if `present`, else the feature's absent value.
  std::uint32_t name_value(std::size_t f, const util::StringInterner& names,
                           bool present, std::uint32_t id);

  const analysis::AnnotatedCorpus* a_;
  FeatureSpace* space_;
  // Per name feature (file then process signer, CA, packer), the value id
  // by name id; the last slot is the absent value's.
  std::array<std::vector<std::uint32_t>, 6> names_;
  std::vector<std::uint32_t> process_types_;  // by process id
  std::array<std::uint32_t, kNumAlexaBuckets> alexa_buckets_;
};

}  // namespace longtail::features

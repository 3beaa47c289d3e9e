#include "features/features.hpp"

#include <stdexcept>

#include "analysis/procname.hpp"

namespace longtail::features {

namespace {

using model::ProcessCategory;
using model::Verdict;

std::string_view process_type_value(const analysis::AnnotatedCorpus& a,
                                    model::ProcessId p) {
  // The paper's rules reference both the benign category ("downloading
  // process is Acrobat Reader") and the process's standing ("downloading
  // process is benign"); encoding the category for known-benign processes
  // and coarse labels otherwise supports both kinds of test.
  switch (a.verdict(p)) {
    case Verdict::kBenign:
      switch (analysis::categorize_by_name(a.corpus->process_name(p))
                  .category) {
        case ProcessCategory::kBrowser: return "browser";
        case ProcessCategory::kWindows: return "windows-process";
        case ProcessCategory::kJava: return "java";
        case ProcessCategory::kAcrobatReader: return "acrobat-reader";
        case ProcessCategory::kOther: return "other-benign";
      }
      return "other-benign";
    case Verdict::kLikelyBenign: return "likely-benign-process";
    case Verdict::kMalicious: return "malicious-process";
    case Verdict::kLikelyMalicious: return "likely-malicious-process";
    case Verdict::kUnknown: return "unknown-process";
  }
  return "unknown-process";
}

// Bucket names in bucket-index order.
constexpr std::array<std::string_view, kNumAlexaBuckets> kAlexaBucketNames = {
    "unranked", "top-1k", "1k-10k", "10k-100k", "100k-1M", "beyond-1M"};

// The absent values of the signer, CA and packer features.
constexpr std::array<std::string_view, 3> kAbsentNames = {
    "not-signed", "no-ca", "not-packed"};

std::size_t alexa_bucket_index(std::uint32_t rank) {
  if (rank == 0) return 0;
  if (rank <= 1'000) return 1;
  if (rank <= 10'000) return 2;
  if (rank <= 100'000) return 3;
  if (rank <= 1'000'000) return 4;
  return 5;
}

}  // namespace

std::string_view alexa_bucket(std::uint32_t rank) {
  return kAlexaBucketNames[alexa_bucket_index(rank)];
}

FeatureExtractor::FeatureExtractor(const analysis::AnnotatedCorpus& a,
                                   FeatureSpace& space)
    : a_(&a),
      space_(&space),
      process_types_(a.corpus->processes.size(), kUnset) {
  const auto& c = *a.corpus;
  for (const std::size_t base : {0, 3}) {  // file, then process features
    names_[base].assign(c.signer_names.size() + 1, kUnset);
    names_[base + 1].assign(c.ca_names.size() + 1, kUnset);
    names_[base + 2].assign(c.packer_names.size() + 1, kUnset);
  }
  alexa_buckets_.fill(kUnset);
}

std::uint32_t FeatureExtractor::name_value(std::size_t f,
                                           const util::StringInterner& names,
                                           bool present, std::uint32_t id) {
  if (present && id >= names.size())
    throw std::out_of_range("FeatureExtractor: name id outside its pool");
  auto& value = names_[f][present ? id : names.size()];
  if (value == kUnset) {
    const auto name = present ? names.at(id) : kAbsentNames[f % 3];
    value = space_->intern(static_cast<Feature>(f), name);
  }
  return value;
}

FeatureVector FeatureExtractor::operator()(const model::DownloadEvent& e) {
  const auto& c = *a_->corpus;
  FeatureVector x;
  auto& v = x.values;
  // A file's or a process's signer, CA and packer, from feature `signer` on.
  auto set_names = [&](Feature signer, const auto& m) {
    const auto f = static_cast<std::size_t>(signer);
    v[f] = name_value(f, c.signer_names, m.is_signed, m.signer.raw());
    v[f + 1] = name_value(f + 1, c.ca_names, m.is_signed, m.ca.raw());
    v[f + 2] = name_value(f + 2, c.packer_names, m.is_packed, m.packer.raw());
  };
  set_names(Feature::kFileSigner, c.files[e.file.raw()]);
  set_names(Feature::kProcessSigner, c.processes[e.process.raw()]);

  auto& type = process_types_[e.process.raw()];
  if (type == kUnset) {
    const auto name = process_type_value(*a_, e.process);
    type = space_->intern(Feature::kProcessType, name);
  }
  v[static_cast<std::size_t>(Feature::kProcessType)] = type;

  const auto bucket = alexa_bucket_index(c.urls[e.url.raw()].alexa_rank);
  auto& alexa = alexa_buckets_[bucket];
  if (alexa == kUnset)
    alexa = space_->intern(Feature::kAlexaBucket, kAlexaBucketNames[bucket]);
  v[static_cast<std::size_t>(Feature::kAlexaBucket)] = alexa;
  return x;
}

}  // namespace longtail::features

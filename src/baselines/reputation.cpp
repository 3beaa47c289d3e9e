#include "baselines/reputation.hpp"

#include "telemetry/scan.hpp"
#include "util/flat_table.hpp"

namespace longtail::baselines {

namespace {

using model::Verdict;

// Shard merge for file -> per-event lists. Combines run in ascending shard
// order, so appending keeps each file's list in corpus (time) order.
void merge_vec_map(
    util::FlatMap<std::uint32_t, std::vector<std::uint32_t>>& total,
    util::FlatMap<std::uint32_t, std::vector<std::uint32_t>>&& shard) {
  for (auto& [key, vec] : shard) {
    auto [merged, inserted] = total.try_emplace(key, std::move(vec));
    if (!inserted) merged->insert(merged->end(), vec.begin(), vec.end());
  }
}

}  // namespace

PrevalenceReputation::PrevalenceReputation(
    const analysis::AnnotatedCorpus& a, model::Timestamp train_end,
    Config config)
    : config_(config) {
  // One belief-propagation sweep: machine risk = share of its training
  // downloads that are known malicious (Laplace-smoothed).
  struct MachineCounts {
    std::uint32_t benign = 0, malicious = 0;
  };
  using CountMap = util::FlatMap<std::uint32_t, MachineCounts>;
  const auto train_n = telemetry::lower_bound_time(*a.corpus, train_end);
  const CountMap counts = telemetry::scan_reduce(
      *a.corpus, 0, train_n, [] { return CountMap{}; },
      [&](CountMap& m, const auto& e) {
        const auto v = a.verdict(e.file());
        if (v == Verdict::kBenign)
          ++m[e.machine().raw()].benign;
        else if (v == Verdict::kMalicious)
          ++m[e.machine().raw()].malicious;
      },
      [](CountMap& total, CountMap&& shard) {
        for (const auto& [machine, c] : shard) {
          total[machine].benign += c.benign;
          total[machine].malicious += c.malicious;
        }
      },
      "baselines.prevalence_train");
  machine_risk_.reserve(counts.size());
  for (const auto& [machine, c] : counts)
    machine_risk_[machine] =
        static_cast<float>(c.malicious + 1) /
        static_cast<float>(c.malicious + c.benign + 2);
}

BaselineVerdict PrevalenceReputation::classify(
    const analysis::AnnotatedCorpus& a, model::FileId file) const {
  // The distinct machines holding the file, over the whole corpus, in
  // machine-id order. Each risk is a float of at least 2^-25 (no machine
  // has 2^25 training downloads), so a multiple of 2^-48, and the
  // collection server caps a file at sigma = 20 machines: every partial
  // sum below is a multiple of 2^-48 under 2^5, exact in a double in any
  // order.
  const auto& reach = a.index.reach();
  if (file.raw() >= reach.num_files()) return BaselineVerdict::kAbstain;
  const auto machines = reach.machines(file);
  if (machines.size() < config_.min_prevalence)
    return BaselineVerdict::kAbstain;  // Polonium's blind spot

  double risk_sum = 0;
  std::uint32_t known = 0;
  for (const auto m : machines) {
    if (const float* risk = machine_risk_.find(m.raw()); risk != nullptr) {
      risk_sum += *risk;
      ++known;
    }
  }
  if (known == 0) return BaselineVerdict::kAbstain;
  const double belief = risk_sum / static_cast<double>(known);
  if (belief >= config_.malicious_threshold)
    return BaselineVerdict::kMalicious;
  if (belief <= config_.benign_threshold) return BaselineVerdict::kBenign;
  return BaselineVerdict::kAbstain;
}

UrlReputation::UrlReputation(const analysis::AnnotatedCorpus& a,
                             model::Timestamp train_end, Config config)
    : config_(config) {
  using DomainMap = util::FlatMap<std::uint32_t, DomainStats>;
  const auto train_n = telemetry::lower_bound_time(*a.corpus, train_end);
  domains_ = telemetry::scan_reduce(
      *a.corpus, 0, train_n, [] { return DomainMap{}; },
      [&](DomainMap& m, const auto& e) {
        const auto domain = a.corpus->urls[e.url().raw()].domain.raw();
        const auto v = a.verdict(e.file());
        if (v == Verdict::kBenign)
          ++m[domain].benign;
        else if (v == Verdict::kMalicious)
          ++m[domain].malicious;
      },
      [](DomainMap& total, DomainMap&& shard) {
        for (const auto& [domain, s] : shard) {
          total[domain].benign += s.benign;
          total[domain].malicious += s.malicious;
        }
      },
      "baselines.url_train");
  file_domains_ = telemetry::scan_reduce(
      *a.corpus, [] { return decltype(file_domains_){}; },
      [&](decltype(file_domains_)& m, const auto& e) {
        m[e.file().raw()].push_back(a.corpus->urls[e.url().raw()].domain.raw());
      },
      merge_vec_map, "baselines.url_index");
}

BaselineVerdict UrlReputation::classify(
    const analysis::AnnotatedCorpus& /*a*/, model::FileId file) const {
  const auto* file_doms = file_domains_.find(file.raw());
  if (file_doms == nullptr) return BaselineVerdict::kAbstain;

  std::uint32_t benign = 0, malicious = 0;
  for (const auto domain : *file_doms) {
    if (const DomainStats* s = domains_.find(domain); s != nullptr) {
      benign += s->benign;
      malicious += s->malicious;
    }
  }
  if (benign + malicious < config_.min_observations)
    return BaselineVerdict::kAbstain;
  const double ratio = static_cast<double>(malicious) /
                       static_cast<double>(benign + malicious);
  if (ratio >= config_.malicious_threshold)
    return BaselineVerdict::kMalicious;
  if (ratio <= config_.benign_threshold) return BaselineVerdict::kBenign;
  return BaselineVerdict::kAbstain;
}

}  // namespace longtail::baselines

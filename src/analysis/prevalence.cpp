#include "analysis/prevalence.hpp"

#include "telemetry/scan.hpp"

namespace longtail::analysis {

PrevalenceDistributions prevalence_distributions(const AnnotatedCorpus& a,
                                                 std::uint32_t sigma) {
  return prevalence_distributions(a, a.index.reach(), sigma);
}

PrevalenceDistributions prevalence_distributions(
    const AnnotatedCorpus& a, const telemetry::FileReach& reach,
    std::uint32_t sigma) {
  PrevalenceDistributions out;
  std::uint64_t ones = 0, capped = 0, total = 0;
  for (std::uint32_t i = 0; i < reach.num_files(); ++i) {
    const model::FileId f{i};
    const std::uint32_t prev = reach.prevalence(f);
    if (prev == 0) continue;  // not observed
    const auto x = static_cast<double>(prev);
    out.all.add(x);
    switch (a.verdict(f)) {
      case model::Verdict::kBenign: out.benign.add(x); break;
      case model::Verdict::kMalicious: out.malicious.add(x); break;
      case model::Verdict::kUnknown: out.unknown.add(x); break;
      default: break;  // likely-* excluded, as in the paper
    }
    ++total;
    if (prev == 1) ++ones;
    if (prev >= sigma) ++capped;
  }
  out.all.finalize();
  out.benign.finalize();
  out.malicious.finalize();
  out.unknown.finalize();
  if (total > 0) {
    out.prevalence_one_fraction =
        static_cast<double>(ones) / static_cast<double>(total);
    out.at_cap_fraction =
        static_cast<double>(capped) / static_cast<double>(total);
  }
  return out;
}

std::array<util::EmpiricalCdf, model::kNumMalwareTypes> prevalence_by_type(
    const AnnotatedCorpus& a) {
  using Cdfs = std::array<util::EmpiricalCdf, model::kNumMalwareTypes>;
  const auto& observed = a.index.observed_files();
  Cdfs out = telemetry::scan_reduce_indexed(
      observed.size(), [] { return Cdfs{}; },
      [&](Cdfs& s, std::size_t i) {
        const auto f = observed[i];
        if (a.verdict(f) != model::Verdict::kMalicious) return;
        s[static_cast<std::size_t>(a.type_of(f))].add(
            static_cast<double>(a.index.prevalence(f)));
      },
      [](Cdfs& total, Cdfs&& shard) {
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          total[t].merge(std::move(shard[t]));
      },
      "analysis.prevalence_by_type");
  for (auto& cdf : out) cdf.finalize();
  return out;
}

std::array<double, model::kNumMalwareTypes> type_breakdown(
    const AnnotatedCorpus& a) {
  struct Acc {
    std::array<std::uint64_t, model::kNumMalwareTypes> counts{};
    std::uint64_t total = 0;
  };
  const Acc acc = telemetry::scan_reduce_indexed(
      a.corpus->files.size(), [] { return Acc{}; },
      [&](Acc& s, std::size_t f) {
        if (a.labels.file_verdicts[f] != model::Verdict::kMalicious) return;
        ++s.counts[static_cast<std::size_t>(a.file_types[f])];
        ++s.total;
      },
      [](Acc& total, Acc&& shard) {
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          total.counts[t] += shard.counts[t];
        total.total += shard.total;
      },
      "analysis.type_breakdown");
  std::array<double, model::kNumMalwareTypes> out{};
  if (acc.total == 0) return out;
  for (std::size_t i = 0; i < acc.counts.size(); ++i)
    out[i] = 100.0 * static_cast<double>(acc.counts[i]) /
             static_cast<double>(acc.total);
  return out;
}

FamilyDistribution family_distribution(const AnnotatedCorpus& a,
                                       std::size_t top_k) {
  struct Acc {
    FamilyDistribution dist;
    util::TopK<std::uint32_t> counter;
  };
  Acc acc = telemetry::scan_reduce_indexed(
      a.corpus->files.size(), [] { return Acc{}; },
      [&](Acc& s, std::size_t f) {
        if (a.labels.file_verdicts[f] != model::Verdict::kMalicious) return;
        ++s.dist.total_malicious;
        const auto family = a.file_families[f];
        if (family == AnnotatedCorpus::kNoFamily) return;
        ++s.dist.with_family;
        s.counter.add(family);
      },
      [](Acc& total, Acc&& shard) {
        total.dist.total_malicious += shard.dist.total_malicious;
        total.dist.with_family += shard.dist.with_family;
        total.counter.merge(shard.counter);
      },
      "analysis.family_distribution");
  FamilyDistribution out = std::move(acc.dist);
  out.distinct_families = acc.counter.distinct();
  for (const auto& [id, count] : acc.counter.top(top_k))
    out.top.emplace_back(std::string(a.derived_families.at(id)), count);
  return out;
}

}  // namespace longtail::analysis

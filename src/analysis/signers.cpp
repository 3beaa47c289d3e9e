#include "analysis/signers.hpp"

#include <unordered_map>

#include "telemetry/scan.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

namespace {

using model::Verdict;

void accumulate(SignedRateRow& row, bool is_signed, bool via_browser,
                std::uint64_t& signed_total, std::uint64_t& browser_signed) {
  ++row.files;
  if (is_signed) ++signed_total;
  if (via_browser) {
    ++row.browser_files;
    if (is_signed) ++browser_signed;
  }
}

}  // namespace

SigningRates signing_rates(const AnnotatedCorpus& a) {
  return signing_rates(a, a.index.reach());
}

SigningRates signing_rates(const AnnotatedCorpus& a,
                           const telemetry::FileReach& reach) {
  SigningRates out;
  std::array<std::uint64_t, model::kNumMalwareTypes> type_signed{},
      type_browser_signed{};
  std::uint64_t b_signed = 0, b_browser_signed = 0;
  std::uint64_t u_signed = 0, u_browser_signed = 0;
  std::uint64_t m_signed = 0, m_browser_signed = 0;
  for (std::uint32_t i = 0; i < reach.num_files(); ++i) {
    const model::FileId f{i};
    if (reach.prevalence(f) == 0) continue;  // not observed
    const bool is_signed = a.corpus->files[i].is_signed;
    const bool via_browser = reach.via_browser(f);
    switch (a.verdict(f)) {
      case Verdict::kBenign:
        accumulate(out.benign, is_signed, via_browser, b_signed,
                   b_browser_signed);
        break;
      case Verdict::kUnknown:
        accumulate(out.unknown, is_signed, via_browser, u_signed,
                   u_browser_signed);
        break;
      case Verdict::kMalicious: {
        const auto t = static_cast<std::size_t>(a.type_of(f));
        accumulate(out.per_type[t], is_signed, via_browser, type_signed[t],
                   type_browser_signed[t]);
        accumulate(out.malicious, is_signed, via_browser, m_signed,
                   m_browser_signed);
        break;
      }
      default:
        break;
    }
  }

  auto finish = [](SignedRateRow& row, std::uint64_t signed_total,
                   std::uint64_t browser_signed) {
    row.signed_pct = util::percent(signed_total, row.files);
    row.browser_signed_pct = util::percent(browser_signed, row.browser_files);
  };
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    finish(out.per_type[t], type_signed[t], type_browser_signed[t]);
  finish(out.benign, b_signed, b_browser_signed);
  finish(out.unknown, u_signed, u_browser_signed);
  finish(out.malicious, m_signed, m_browser_signed);
  return out;
}

namespace {

// Per-signer file counts. A signer signs files of a class exactly when
// its count there is nonzero, so each counter's keys are its signer set.
struct SignerCounts {
  util::TopK<std::uint32_t> benign_counts, malicious_counts;
  std::array<util::TopK<std::uint32_t>, model::kNumMalwareTypes> type_counts;

  [[nodiscard]] bool signs_benign(std::uint32_t signer) const {
    return benign_counts.count(signer) > 0;
  }
};

SignerCounts collect_signers(const AnnotatedCorpus& a) {
  const auto& observed = a.index.observed_files();
  return telemetry::scan_reduce_indexed(
      observed.size(), [] { return SignerCounts{}; },
      [&](SignerCounts& s, std::size_t i) {
        const auto f = observed[i];
        const auto& meta = a.corpus->files[f.raw()];
        if (!meta.is_signed) return;
        const auto signer = meta.signer.raw();
        switch (a.verdict(f)) {
          case Verdict::kBenign:
            s.benign_counts.add(signer);
            break;
          case Verdict::kMalicious: {
            const auto t = static_cast<std::size_t>(a.type_of(f));
            s.malicious_counts.add(signer);
            s.type_counts[t].add(signer);
            break;
          }
          default:
            break;
        }
      },
      [](SignerCounts& total, SignerCounts&& shard) {
        total.benign_counts.merge(shard.benign_counts);
        total.malicious_counts.merge(shard.malicious_counts);
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          total.type_counts[t].merge(shard.type_counts[t]);
      },
      "analysis.collect_signers");
}

}  // namespace

SignerOverlap signer_overlap(const AnnotatedCorpus& a) {
  const SignerCounts s = collect_signers(a);
  auto overlap = [&](const util::TopK<std::uint32_t>& counts) {
    SignerOverlapRow row;
    row.signers = counts.distinct();
    for (const auto& [signer, n] : counts.raw())
      if (s.signs_benign(signer)) ++row.common_with_benign;
    return row;
  };
  SignerOverlap out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    out.per_type[t] = overlap(s.type_counts[t]);
  out.total = overlap(s.malicious_counts);
  return out;
}

TopSigners top_signers(const AnnotatedCorpus& a, std::size_t top_k,
                       std::size_t table9_k) {
  const SignerCounts s = collect_signers(a);
  TopSigners out;

  auto split_top = [&](const util::TopK<std::uint32_t>& counts,
                       TopSigners::Row& row) {
    std::size_t want = std::max<std::size_t>(top_k * 8, 24);
    for (const auto& [signer, count] : counts.top(want)) {
      const auto name = a.corpus->signer_names.at(signer);
      if (row.top.size() < top_k) row.top.emplace_back(name, count);
      if (s.signs_benign(signer)) {
        if (row.top_common.size() < top_k)
          row.top_common.emplace_back(name, count);
      } else if (row.top_exclusive.size() < top_k) {
        row.top_exclusive.emplace_back(name, count);
      }
    }
  };
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    split_top(s.type_counts[t], out.per_type[t]);
  split_top(s.malicious_counts, out.malicious_total);

  for (const auto& [signer, count] :
       s.benign_counts.top(s.benign_counts.distinct())) {
    if (out.top_benign_exclusive.size() >= table9_k) break;
    if (s.malicious_counts.count(signer) == 0)
      out.top_benign_exclusive.emplace_back(a.corpus->signer_names.at(signer),
                                            count);
  }
  for (const auto& [signer, count] :
       s.malicious_counts.top(s.malicious_counts.distinct())) {
    if (out.top_malicious_exclusive.size() >= table9_k) break;
    if (!s.signs_benign(signer))
      out.top_malicious_exclusive.emplace_back(
          a.corpus->signer_names.at(signer), count);
  }
  return out;
}

std::vector<CommonSignerPoint> common_signers(const AnnotatedCorpus& a,
                                              std::size_t top_k) {
  const SignerCounts s = collect_signers(a);
  util::TopK<std::uint32_t> total;
  for (const auto& [signer, n] : s.malicious_counts.raw())
    if (s.signs_benign(signer))
      total.add(signer, s.benign_counts.count(signer) + n);
  std::vector<CommonSignerPoint> out;
  for (const auto& [signer, count] : total.top(top_k))
    out.push_back({a.corpus->signer_names.at(signer),
                   s.benign_counts.count(signer),
                   s.malicious_counts.count(signer)});
  return out;
}

}  // namespace longtail::analysis

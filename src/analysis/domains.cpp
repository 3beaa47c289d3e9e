#include "analysis/domains.hpp"

#include <string>
#include <unordered_set>

#include "telemetry/scan.hpp"
#include "util/trace.hpp"

namespace longtail::analysis {

namespace {

using model::Verdict;

// One packed `domain << 32 | member` key per qualifying event, where the
// member is a machine or a file depending on the table. Shards append in
// shard order; the distinct count below does not depend on key order.
using DomainKeys = std::vector<std::uint64_t>;

void append(DomainKeys& total, DomainKeys&& shard) {
  if (total.empty())
    total = std::move(shard);
  else
    total.insert(total.end(), shard.begin(), shard.end());
}

std::uint32_t domain_of(const AnnotatedCorpus& a, model::UrlId url) {
  return a.corpus->urls[url.raw()].domain.raw();
}

std::uint64_t domain_key(const AnnotatedCorpus& a, model::UrlId url,
                         std::uint32_t member) {
  return std::uint64_t{domain_of(a, url)} << 32 | member;
}

// The finisher: the number of distinct members per domain, ranked. A
// counting sort buckets the member ids by domain; a stamp per member (one
// past the id of the last domain whose bucket counted it) then counts each
// member once per bucket. `n_members` bounds the member ids: the machine
// or the file table size.
std::vector<DomainCount> rank_distinct(const AnnotatedCorpus& a,
                                       const DomainKeys& keys,
                                       std::size_t n_members,
                                       std::size_t top_k) {
  const std::size_t n_domains = a.corpus->num_domains();
  // offset[d] ends as the start of domain d's bucket; offset[n_domains]
  // is the key count.
  std::vector<std::uint32_t> offset(n_domains + 1, 0);
  for (const auto k : keys) ++offset[k >> 32];
  for (std::size_t d = 1; d <= n_domains; ++d) offset[d] += offset[d - 1];
  std::vector<std::uint32_t> members(keys.size());
  for (const auto k : keys)
    members[--offset[k >> 32]] = static_cast<std::uint32_t>(k);

  std::vector<std::uint32_t> stamp(n_members, 0);
  util::TopK<std::uint32_t> counter;
  for (std::uint32_t d = 0; d < n_domains; ++d) {
    std::uint64_t distinct = 0;
    for (auto i = offset[d]; i < offset[d + 1]; ++i) {
      auto& s = stamp[members[i]];
      if (s == d + 1) continue;
      s = d + 1;
      ++distinct;
    }
    if (distinct > 0) counter.add(d, distinct);
  }
  std::vector<DomainCount> out;
  for (const auto& [domain, count] : counter.top(top_k))
    out.emplace_back(a.corpus->domain_names.at(domain), count);
  return out;
}

}  // namespace

DomainPopularity domain_popularity(const AnnotatedCorpus& a,
                                   std::size_t top_k) {
  constexpr const char* kLabel = "analysis.domain_popularity";
  struct Acc {
    DomainKeys overall, benign, malicious;
  };
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        const auto k = domain_key(a, e.url(), e.machine().raw());
        s.overall.push_back(k);
        switch (a.verdict(e.file())) {
          case Verdict::kBenign:
            s.benign.push_back(k);
            break;
          case Verdict::kMalicious:
            s.malicious.push_back(k);
            break;
          default:
            break;
        }
      },
      [](Acc& total, Acc&& shard) {
        append(total.overall, std::move(shard.overall));
        append(total.benign, std::move(shard.benign));
        append(total.malicious, std::move(shard.malicious));
      },
      kLabel);
  LONGTAIL_TRACE_SPAN_DETAIL("analysis.domain_rank", std::string(kLabel));
  const std::size_t machines = a.corpus->machine_count;
  return DomainPopularity{rank_distinct(a, acc.overall, machines, top_k),
                          rank_distinct(a, acc.benign, machines, top_k),
                          rank_distinct(a, acc.malicious, machines, top_k)};
}

DomainFileCounts files_per_domain(const AnnotatedCorpus& a,
                                  std::size_t top_k) {
  constexpr const char* kLabel = "analysis.files_per_domain";
  struct Acc {
    DomainKeys benign, malicious;
  };
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        switch (a.verdict(e.file())) {
          case Verdict::kBenign:
            s.benign.push_back(domain_key(a, e.url(), e.file().raw()));
            break;
          case Verdict::kMalicious:
            s.malicious.push_back(domain_key(a, e.url(), e.file().raw()));
            break;
          default:
            break;
        }
      },
      [](Acc& total, Acc&& shard) {
        append(total.benign, std::move(shard.benign));
        append(total.malicious, std::move(shard.malicious));
      },
      kLabel);
  LONGTAIL_TRACE_SPAN_DETAIL("analysis.domain_rank", std::string(kLabel));
  const std::size_t files = a.corpus->num_files();
  DomainFileCounts out{rank_distinct(a, acc.benign, files, top_k),
                       rank_distinct(a, acc.malicious, files, top_k), 0};
  std::unordered_set<std::string_view> benign_top;
  for (const auto& [name, count] : out.benign) benign_top.insert(name);
  for (const auto& [name, count] : out.malicious)
    if (benign_top.contains(name)) ++out.overlap_in_top;
  return out;
}

std::array<std::vector<DomainCount>, model::kNumMalwareTypes>
domains_per_type(const AnnotatedCorpus& a, std::size_t top_k) {
  constexpr const char* kLabel = "analysis.domains_per_type";
  using TypeKeys = std::array<DomainKeys, model::kNumMalwareTypes>;
  const TypeKeys keys = telemetry::scan_reduce(
      *a.corpus, [] { return TypeKeys{}; },
      [&](TypeKeys& s, const auto& e) {
        if (a.verdict(e.file()) != Verdict::kMalicious) return;
        const auto type = static_cast<std::size_t>(a.type_of(e.file()));
        s[type].push_back(domain_key(a, e.url(), e.file().raw()));
      },
      [](TypeKeys& total, TypeKeys&& shard) {
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          append(total[t], std::move(shard[t]));
      },
      kLabel);
  LONGTAIL_TRACE_SPAN_DETAIL("analysis.domain_rank", std::string(kLabel));
  std::array<std::vector<DomainCount>, model::kNumMalwareTypes> out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    out[t] = rank_distinct(a, keys[t], a.corpus->num_files(), top_k);
  return out;
}

std::vector<DomainCount> top_unknown_domains(const AnnotatedCorpus& a,
                                             std::size_t top_k) {
  const util::TopK<std::uint32_t> downloads = telemetry::scan_reduce(
      *a.corpus, [] { return util::TopK<std::uint32_t>{}; },
      [&](util::TopK<std::uint32_t>& acc, const auto& e) {
        if (a.verdict(e.file()) == Verdict::kUnknown)
          acc.add(domain_of(a, e.url()));
      },
      [](util::TopK<std::uint32_t>& total,
         util::TopK<std::uint32_t>&& shard) { total.merge(shard); },
      "analysis.top_unknown_domains");
  std::vector<DomainCount> out;
  for (const auto& [domain, count] : downloads.top(top_k))
    out.emplace_back(a.corpus->domain_names.at(domain), count);
  return out;
}

AlexaDistribution alexa_of_domains_hosting(const AnnotatedCorpus& a,
                                           Verdict target) {
  // One flag per domain: hosts at least one file of the target class.
  // Shards merge by OR.
  using Flags = std::vector<std::uint8_t>;
  const Flags hosting = telemetry::scan_reduce(
      *a.corpus, [&] { return Flags(a.corpus->num_domains(), 0); },
      [&](Flags& acc, const auto& e) {
        if (a.verdict(e.file()) == target) acc[domain_of(a, e.url())] = 1;
      },
      [](Flags& total, Flags&& shard) {
        for (std::size_t d = 0; d < total.size(); ++d) total[d] |= shard[d];
      },
      "analysis.alexa_of_domains");

  AlexaDistribution out;
  std::uint64_t unranked = 0;
  for (std::size_t d = 0; d < hosting.size(); ++d) {
    if (!hosting[d]) continue;
    ++out.domains;
    const auto rank = a.corpus->domains[d].alexa_rank;
    if (rank == 0)
      ++unranked;
    else
      out.ranks.add(static_cast<double>(rank));
  }
  out.ranks.finalize();
  if (out.domains > 0)
    out.unranked_fraction =
        static_cast<double>(unranked) / static_cast<double>(out.domains);
  return out;
}

}  // namespace longtail::analysis

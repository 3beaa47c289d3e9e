#include "analysis/malproc.hpp"

#include "telemetry/scan.hpp"

namespace longtail::analysis {

MalProcBehavior malicious_process_behavior(const AnnotatedCorpus& a) {
  struct Tables {
    std::array<RowAccumulator, model::kNumMalwareTypes> per_type;
    RowAccumulator overall;
  };
  const auto [per_type, overall] = telemetry::scan_reduce(
      *a.corpus, [] { return Tables{}; },
      [&](Tables& s, const auto& e) {
        if (a.verdict(e.process()) != model::Verdict::kMalicious) return;
        const auto t = static_cast<std::size_t>(a.type_of(e.process()));
        s.per_type[t].add(a, e);
        s.overall.add(a, e);
      },
      [&](Tables& total, Tables&& shard) {
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
          total.per_type[t].merge(a, std::move(shard.per_type[t]));
        total.overall.merge(a, std::move(shard.overall));
      },
      "analysis.malicious_process_behavior");
  MalProcBehavior out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    out.per_type[t] = per_type[t].finish();
  out.overall = overall.finish();
  return out;
}

}  // namespace longtail::analysis

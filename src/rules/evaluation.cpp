#include "rules/evaluation.hpp"

#include <optional>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::rules {

namespace {

// Shard count for parallel evaluation: derived from the workload, never
// the thread count, so merged results are reproducible bit-for-bit under
// any LONGTAIL_THREADS setting.
constexpr std::size_t kEvalShards = 64;

}  // namespace

EvalResult evaluate(const RuleClassifier& classifier,
                    std::span<const features::Instance> test) {
  LONGTAIL_TRACE_SPAN("rules.evaluate");
  LONGTAIL_METRIC_COUNT("rules.instances_evaluated", test.size());
  EvalResult r;
  util::sharded_for(
      test.size(), kEvalShards,
      [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
        LONGTAIL_TRACE_SPAN("rules.eval.shard");
        EvalResult s;
        for (std::size_t i = begin; i < end; ++i) {
          const auto& inst = test[i];
          const auto decision = classifier.classify(inst.x);
          switch (decision) {
            case Decision::kNoMatch:
              ++s.unmatched;
              break;
            case Decision::kRejected:
              ++s.rejected;
              break;
            case Decision::kMalicious:
              if (inst.malicious) {
                ++s.matched_malicious;
                ++s.true_positives;
              } else {
                ++s.matched_benign;
                ++s.false_positives;
                for (const auto rule_index : classifier.matching_rules(inst.x))
                  if (classifier.rules()[rule_index].predict_malicious)
                    s.fp_rules.insert(rule_index);
              }
              break;
            case Decision::kBenign:
              if (inst.malicious) {
                ++s.matched_malicious;
                ++s.false_negatives;
              } else {
                ++s.matched_benign;
                ++s.true_negatives;
              }
              break;
          }
        }
        return s;
      },
      [&](EvalResult&& s, std::size_t /*shard*/) {
        r.matched_malicious += s.matched_malicious;
        r.matched_benign += s.matched_benign;
        r.rejected += s.rejected;
        r.unmatched += s.unmatched;
        r.true_positives += s.true_positives;
        r.false_negatives += s.false_negatives;
        r.false_positives += s.false_positives;
        r.true_negatives += s.true_negatives;
        r.fp_rules.insert(s.fp_rules.begin(), s.fp_rules.end());
      });
  return r;
}

ExpansionResult expand_unknowns(
    const RuleClassifier& classifier,
    std::span<const features::Instance> unknowns) {
  LONGTAIL_TRACE_SPAN("rules.expand_unknowns");
  LONGTAIL_METRIC_COUNT("rules.unknowns_classified", unknowns.size());
  ExpansionResult r;
  r.total_unknowns = unknowns.size();
  util::sharded_for(
      unknowns.size(), kEvalShards,
      [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
        LONGTAIL_TRACE_SPAN("rules.eval.shard");
        ExpansionResult s;
        for (std::size_t i = begin; i < end; ++i) {
          switch (classifier.classify(unknowns[i].x)) {
            case Decision::kMalicious: ++s.labeled_malicious; break;
            case Decision::kBenign: ++s.labeled_benign; break;
            case Decision::kRejected: ++s.rejected; break;
            case Decision::kNoMatch: break;
          }
        }
        return s;
      },
      [&](ExpansionResult&& s, std::size_t /*shard*/) {
        r.labeled_malicious += s.labeled_malicious;
        r.labeled_benign += s.labeled_benign;
        r.rejected += s.rejected;
      });
  return r;
}

FeatureUsage feature_usage(std::span<const Rule> rules) {
  FeatureUsage usage;
  if (rules.empty()) return usage;
  std::array<std::uint64_t, features::kNumFeatures> counts{};
  std::uint64_t single = 0;
  for (const auto& rule : rules) {
    std::array<bool, features::kNumFeatures> seen{};
    for (const auto& c : rule.conditions)
      seen[static_cast<std::size_t>(c.feature)] = true;
    for (std::size_t f = 0; f < features::kNumFeatures; ++f)
      if (seen[f]) ++counts[f];
    if (rule.conditions.size() == 1) ++single;
  }
  const auto n = static_cast<double>(rules.size());
  for (std::size_t f = 0; f < features::kNumFeatures; ++f)
    usage.pct[f] = 100.0 * static_cast<double>(counts[f]) / n;
  usage.single_condition_pct = 100.0 * static_cast<double>(single) / n;
  return usage;
}

}  // namespace longtail::rules

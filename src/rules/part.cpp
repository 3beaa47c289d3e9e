#include "rules/part.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>

#include "rules/induction.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::rules {

namespace {

using features::Feature;
using features::Instance;
using features::kNumFeatures;

// Inverse standard-normal CDF (Acklam's rational approximation; ~1e-9
// absolute error — far more than enough for pruning thresholds).
double normal_quantile(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= 1 - plow) {
    const double q = p - 0.5, r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  const double q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

// Weka's Stats::addErrs — the number of errors to add to `e` so the total
// is the upper confidence bound at the given confidence.
double add_errs(double n, double e, double cf) {
  if (cf > 0.5) return e;
  if (e < 1) {
    const double base = n * (1 - std::pow(cf, 1.0 / n));
    if (e == 0) return base;
    return base + e * (add_errs(n, 1.0, cf) - base);
  }
  if (e + 0.5 >= n) return std::max(n - e, 0.0);
  const double z = normal_quantile(1 - cf);
  const double f = (e + 0.5) / n;
  const double r =
      (f + z * z / (2 * n) +
       z * std::sqrt(f / n - f * f / n + z * z / (4 * n * n))) /
      (1 + z * z / n);
  return r * n - e;
}

using induction::Subset;

// A leaf of the partial tree, with the path of conditions leading to it.
struct Leaf {
  std::vector<Condition> path;  // root-relative, built on unwind
  bool predict_malicious = false;
  std::uint32_t coverage = 0;
  std::uint32_t errors = 0;
};

struct BuildOutcome {
  bool is_leaf = false;
  std::uint32_t n = 0, mal = 0;
  double est_errors = 0;     // pessimistic error count of the subtree
  std::vector<Leaf> leaves;  // all leaves in the (partial) subtree
};

class PartialTreeBuilder {
 public:
  PartialTreeBuilder(std::span<const Instance> data, const PartConfig& config)
      : data_(data), config_(config), splits_(data) {}

  BuildOutcome expand(std::vector<std::uint32_t>& items);

 private:
  BuildOutcome make_leaf(std::uint32_t n, std::uint32_t mal) const {
    BuildOutcome out;
    out.is_leaf = true;
    out.n = n;
    out.mal = mal;
    const auto errors = std::min(mal, n - mal);
    out.est_errors = static_cast<double>(errors) +
                     add_errs(n, errors, config_.pruning_confidence);
    Leaf leaf;
    leaf.predict_malicious = mal * 2 > n;
    leaf.coverage = n;
    leaf.errors = errors;
    out.leaves.push_back(std::move(leaf));
    return out;
  }

  std::span<const Instance> data_;
  const PartConfig& config_;
  induction::SplitSelector splits_;
};

BuildOutcome PartialTreeBuilder::expand(std::vector<std::uint32_t>& items) {
  const auto n = static_cast<std::uint32_t>(items.size());
  std::uint32_t mal = 0;
  for (const auto item : items) mal += data_[item].malicious ? 1u : 0u;

  if (mal == 0 || mal == n || n < 2 * config_.min_instances)
    return make_leaf(n, mal);

  auto choice = splits_.choose(items, mal, config_.min_instances);
  if (!choice.found) return make_leaf(n, mal);

  // Expand subsets in ascending entropy (Frank & Witten): low-entropy
  // subsets collapse into leaves quickly; the first subtree that refuses
  // to collapse ends the expansion (leaving the remaining subsets
  // unexplored — this is what makes the tree "partial").
  std::vector<std::pair<std::uint32_t, Subset*>> order;
  order.reserve(choice.partitions.size());
  for (auto& [value, subset] : choice.partitions)
    order.emplace_back(value, &subset);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    const double ea = a.second->entropy(), eb = b.second->entropy();
    if (ea != eb) return ea < eb;
    return a.first < b.first;  // deterministic tie-break
  });

  BuildOutcome out;
  out.n = n;
  out.mal = mal;
  double children_est = 0;
  bool all_leaves = true;

  for (const auto& [value, subset] : order) {
    auto child = expand(subset->items);
    children_est += child.est_errors;
    for (auto& leaf : child.leaves) {
      leaf.path.insert(leaf.path.begin(), Condition{choice.feature, value});
      out.leaves.push_back(std::move(leaf));
    }
    if (!child.is_leaf) {
      all_leaves = false;
      break;  // partial tree: stop expanding the remaining subsets
    }
  }

  out.est_errors = children_est;
  if (!all_leaves) {
    out.is_leaf = false;
    return out;
  }

  // All subsets expanded into leaves: C4.5 subtree replacement.
  const auto leaf_errors = std::min(mal, n - mal);
  const double leaf_est =
      static_cast<double>(leaf_errors) +
      add_errs(n, leaf_errors, config_.pruning_confidence);
  if (leaf_est <= children_est + 0.1) return make_leaf(n, mal);

  out.is_leaf = false;
  return out;
}

}  // namespace

double pessimistic_error_rate(double errors, double n, double confidence) {
  if (n <= 0) return 0.0;
  return (errors + add_errs(n, errors, confidence)) / n;
}

std::vector<Rule> PartLearner::learn(
    std::span<const Instance> data) const {
  LONGTAIL_TRACE_SPAN_DETAIL("rules.part.learn",
                             "instances=" + std::to_string(data.size()));
  std::vector<Rule> rules;
  std::vector<std::uint32_t> remaining(data.size());
  for (std::uint32_t i = 0; i < remaining.size(); ++i) remaining[i] = i;

  PartialTreeBuilder builder(data, config_);
  while (!remaining.empty() && rules.size() < config_.max_rules) {
    LONGTAIL_METRIC_COUNT("rules.part.iterations", 1);
    auto outcome = builder.expand(remaining);
    LONGTAIL_METRIC_COUNT("rules.part.leaves_grown", outcome.leaves.size());

    // Pick the leaf covering the most instances (ties: fewer errors, then
    // shorter path, then lexicographic for determinism).
    const Leaf* best = nullptr;
    for (const auto& leaf : outcome.leaves) {
      if (best == nullptr || leaf.coverage > best->coverage ||
          (leaf.coverage == best->coverage &&
           (leaf.errors < best->errors ||
            (leaf.errors == best->errors &&
             leaf.path.size() < best->path.size()))))
        best = &leaf;
    }
    if (best == nullptr) break;

    if (best->path.empty() && !config_.emit_default_rule) break;

    Rule rule;
    rule.conditions = best->path;
    rule.predict_malicious = best->predict_malicious;

    // Remove covered instances and recompute the rule's statistics over
    // everything it matches in the remaining data (a max-coverage leaf's
    // conditions can match more than its own subset when the tree stopped
    // early).
    std::vector<std::uint32_t> kept;
    kept.reserve(remaining.size());
    std::uint32_t covered = 0, errors = 0;
    for (const auto item : remaining) {
      if (rule.matches(data[item].x)) {
        ++covered;
        if (data[item].malicious != rule.predict_malicious) ++errors;
      } else {
        kept.push_back(item);
      }
    }
    rule.coverage = covered;
    rule.errors = errors;
    LONGTAIL_METRIC_COUNT("rules.part.rules_grown", 1);
    LONGTAIL_METRIC_COUNT("rules.part.instances_pruned", covered);
    rules.push_back(std::move(rule));
    if (covered == 0) break;  // defensive: no progress
    remaining = std::move(kept);
  }

  // PART extracts rules against a shrinking residue, but the paper applies
  // them as a *set* with a per-rule error threshold (tau). A rule scored
  // only on its residue can look perfect while contradicting masses of
  // earlier-covered instances (e.g. a late "windows process + not packed
  // -> malicious" residue rule). Re-score every rule on the full training
  // window so tau selection sees set semantics.
  for (auto& rule : rules) {
    std::uint32_t covered = 0, errors = 0;
    for (const auto& inst : data) {
      if (!rule.matches(inst.x)) continue;
      ++covered;
      if (inst.malicious != rule.predict_malicious) ++errors;
    }
    rule.coverage = covered;
    rule.errors = errors;
  }
  LONGTAIL_METRIC_COUNT("rules.part.rules_emitted", rules.size());
  return rules;
}

}  // namespace longtail::rules

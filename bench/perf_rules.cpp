// google-benchmark microbenchmarks and ablations for the rule subsystem:
// PART induction, tau selection, classification throughput, and the
// DESIGN.md ablations (conflict policy, feature dropping).
//
// main() also times rule matching over the test + unknown datasets under
// LONGTAIL_THREADS = 1, 2, 8 and writes BENCH_rules.json (same scheme as
// perf_pipeline: LONGTAIL_BENCH_MICRO=0 skips the micro suite,
// LONGTAIL_BENCH_JSON overrides the output path).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/longtail.hpp"
#include "rules/tree.hpp"

namespace {

using namespace longtail;

struct RuleFixture {
  core::LongtailPipeline pipeline = core::LongtailPipeline::generate(0.05);
  core::RuleExperiment exp = pipeline.run_rule_experiment(
      model::Month::kMarch, model::Month::kApril);
};

RuleFixture& fixture() {
  static RuleFixture f;
  return f;
}

void BM_PartLearn(benchmark::State& state) {
  auto& f = fixture();
  const rules::PartLearner learner;
  std::size_t n_rules = 0;
  for (auto _ : state) {
    auto rules = learner.learn(f.exp.data.train);
    n_rules = rules.size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(n_rules);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(f.exp.data.train.size()) * state.iterations());
}
BENCHMARK(BM_PartLearn)->Unit(benchmark::kMillisecond);

void BM_TauSelection(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    auto selected = rules::select_rules(f.exp.all_rules, 0.001);
    benchmark::DoNotOptimize(selected);
  }
}
BENCHMARK(BM_TauSelection);

void BM_ClassifyUnknowns(benchmark::State& state) {
  auto& f = fixture();
  const rules::RuleClassifier classifier(
      rules::select_rules(f.exp.all_rules, 0.001));
  for (auto _ : state) {
    auto result = rules::expand_unknowns(classifier, f.exp.data.unknowns);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(f.exp.data.unknowns.size()) *
      state.iterations());
}
BENCHMARK(BM_ClassifyUnknowns)->Unit(benchmark::kMillisecond);

// --- Ablation: conflict policy (DESIGN.md) ---------------------------------
// The paper rejects conflicting matches; the ablations measure accuracy
// under majority vote and PART's native decision-list semantics.
void BM_Ablation_ConflictPolicy(benchmark::State& state) {
  auto& f = fixture();
  const auto policy = static_cast<rules::ConflictPolicy>(state.range(0));
  auto selected = rules::select_rules(f.exp.all_rules, 0.001);
  const rules::RuleClassifier classifier(std::move(selected), policy);
  rules::EvalResult eval;
  for (auto _ : state) {
    eval = rules::evaluate(classifier, f.exp.data.test);
    benchmark::DoNotOptimize(eval);
  }
  state.counters["tp_pct"] = eval.tp_rate();
  state.counters["fp_pct"] = eval.fp_rate();
  state.counters["rejected"] = static_cast<double>(eval.rejected);
}
BENCHMARK(BM_Ablation_ConflictPolicy)
    ->Arg(0)   // kReject (the paper)
    ->Arg(1)   // kMajorityVote
    ->Arg(2)   // kDecisionList
    ->Unit(benchmark::kMicrosecond);

// --- Ablation: tau sweep ---------------------------------------------------
// The paper limits itself to tau <= 0.1%, predicting deterioration beyond;
// this sweep measures it.
void BM_Ablation_TauSweep(benchmark::State& state) {
  auto& f = fixture();
  const double tau = static_cast<double>(state.range(0)) / 10'000.0;
  auto selected = rules::select_rules(f.exp.all_rules, tau);
  const rules::RuleClassifier classifier(std::move(selected));
  rules::EvalResult eval;
  rules::ExpansionResult expansion;
  for (auto _ : state) {
    eval = rules::evaluate(classifier, f.exp.data.test);
    expansion = rules::expand_unknowns(classifier, f.exp.data.unknowns);
    benchmark::DoNotOptimize(eval);
  }
  state.counters["tp_pct"] = eval.tp_rate();
  state.counters["fp_pct"] = eval.fp_rate();
  state.counters["unknown_matched_pct"] = expansion.matched_pct();
}
BENCHMARK(BM_Ablation_TauSweep)
    ->Arg(0)    // tau = 0.0%
    ->Arg(10)   // tau = 0.1%
    ->Arg(50)   // tau = 0.5%
    ->Arg(100)  // tau = 1.0%
    ->Unit(benchmark::kMicrosecond);

// --- Ablation: drop the signer feature -------------------------------------
// The signer feature appears in ~75% of the paper's rules; removing it
// should collapse coverage.
void BM_Ablation_DropSigner(benchmark::State& state) {
  auto& f = fixture();
  // Re-learn on instances whose signer features are collapsed to one
  // value, which is equivalent to removing the feature.
  std::vector<features::Instance> train = f.exp.data.train;
  const bool drop = state.range(0) != 0;
  if (drop) {
    for (auto& inst : train) {
      inst.x.values[static_cast<std::size_t>(
          features::Feature::kFileSigner)] = 0;
      inst.x.values[static_cast<std::size_t>(features::Feature::kFileCa)] = 0;
    }
  }
  const rules::PartLearner learner;
  std::vector<rules::Rule> learned;
  for (auto _ : state) {
    learned = learner.learn(train);
    benchmark::DoNotOptimize(learned);
  }
  auto unknowns = f.exp.data.unknowns;
  if (drop) {
    for (auto& inst : unknowns) {
      inst.x.values[static_cast<std::size_t>(
          features::Feature::kFileSigner)] = 0;
      inst.x.values[static_cast<std::size_t>(features::Feature::kFileCa)] = 0;
    }
  }
  const rules::RuleClassifier classifier(rules::select_rules(learned, 0.001));
  const auto expansion = rules::expand_unknowns(classifier, unknowns);
  state.counters["rules"] = static_cast<double>(learned.size());
  state.counters["unknown_matched_pct"] = expansion.matched_pct();
}
BENCHMARK(BM_Ablation_DropSigner)
    ->Arg(0)  // full feature set
    ->Arg(1)  // signer + CA dropped
    ->Unit(benchmark::kMillisecond);

// --- Ablation: PART rule set vs. the full decision tree --------------------
// §VI-D argues the pruned, conflict-rejecting rule set beats classifying
// with a whole tree, which cannot abstain from its weak branches.
void BM_Ablation_FullTree(benchmark::State& state) {
  auto& f = fixture();
  const bool use_tree = state.range(0) != 0;
  std::uint64_t tp = 0, fn = 0, fp = 0, tn = 0;
  if (use_tree) {
    const auto tree = rules::DecisionTree::build(f.exp.data.train);
    for (auto _ : state) {
      tp = fn = fp = tn = 0;
      for (const auto& inst : f.exp.data.test) {
        const bool flagged = tree.classify(inst.x);
        if (inst.malicious) ++(flagged ? tp : fn);
        else ++(flagged ? fp : tn);
      }
      benchmark::DoNotOptimize(tp);
    }
    state.counters["tree_nodes"] =
        static_cast<double>(tree.node_count());
  } else {
    const rules::RuleClassifier classifier(
        rules::select_rules(f.exp.all_rules, 0.001));
    for (auto _ : state) {
      tp = fn = fp = tn = 0;
      for (const auto& inst : f.exp.data.test) {
        switch (classifier.classify(inst.x)) {
          case rules::Decision::kMalicious:
            ++(inst.malicious ? tp : fp);
            break;
          case rules::Decision::kBenign:
            ++(inst.malicious ? fn : tn);
            break;
          default:
            break;  // rejected / unmatched: abstain
        }
      }
      benchmark::DoNotOptimize(tp);
    }
  }
  state.counters["tp"] = static_cast<double>(tp);
  state.counters["fp"] = static_cast<double>(fp);
  state.counters["fp_pct_of_benign"] =
      fp + tn == 0 ? 0.0
                   : 100.0 * static_cast<double>(fp) /
                         static_cast<double>(fp + tn);
}
BENCHMARK(BM_Ablation_FullTree)
    ->Arg(0)  // PART rule set + rejection (the paper)
    ->Arg(1)  // full C4.5 tree
    ->Unit(benchmark::kMillisecond);

void emit_trajectory() {
  auto& f = fixture();
  const rules::RuleClassifier classifier(
      rules::select_rules(f.exp.all_rules, 0.001));
  const std::size_t instances =
      f.exp.data.test.size() + f.exp.data.unknowns.size();

  std::printf("\n[longtail] rule-matching trajectory (%zu instances)\n",
              instances);
  struct Run {
    unsigned threads;
    double ms;
    std::uint64_t checksum;
  };
  std::vector<Run> runs;
  for (const unsigned t : {1u, 2u, 8u}) {
    util::set_global_threads(t);
    rules::EvalResult eval;
    rules::ExpansionResult expansion;
    const double ms = bench::time_ms([&] {
      eval = rules::evaluate(classifier, f.exp.data.test);
      expansion = rules::expand_unknowns(classifier, f.exp.data.unknowns);
    });
    runs.push_back({t, ms,
                    eval.true_positives * 1'000'003 +
                        eval.false_positives * 31 +
                        expansion.labeled_malicious});
    std::printf("  threads=%-2u %8.2f ms  %10.0f instances/s\n", t, ms,
                1000.0 * static_cast<double>(instances) / ms);
  }
  // Fold the profile summary in and capture the snapshot before the
  // thread restore: the {1,2,8} fan-out is the fixed workload whose
  // counters bench_compare gates exactly across machines. Rebuilding the
  // pool first drains any still-queued task wrappers so the
  // profile.pool.task_ms count is exact.
  util::set_global_threads(2);
  util::profile::publish_metrics();
  const std::string metrics_snapshot = util::metrics::snapshot_json();
  util::set_global_threads(util::ThreadPool::default_threads());

  bool deterministic = true;
  double best_ms = runs.front().ms;
  for (const auto& r : runs) {
    deterministic = deterministic && r.checksum == runs.front().checksum;
    best_ms = std::min(best_ms, r.ms);
  }

  std::string runs_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) runs_json += ", ";
    runs_json += util::json::Object()
                     .field("threads", runs[i].threads)
                     .field("match_ms", runs[i].ms)
                     .field("instances_per_sec",
                            1000.0 * static_cast<double>(instances) /
                                runs[i].ms)
                     .str();
  }
  runs_json += "]";
  const auto json = util::json::Object()
                        .field("bench", std::string_view("rules"))
                        .field("instances",
                               static_cast<std::uint64_t>(instances))
                        .field("rules", static_cast<std::uint64_t>(
                                            classifier.rules().size()))
                        .raw("run",
                             bench::run_manifest_json(
                                 0.05, core::dataset_fingerprint(
                                           f.pipeline.dataset())))
                        .raw("runs", runs_json)
                        .field("serial_ms", runs.front().ms)
                        .field("best_ms", best_ms)
                        .field("speedup", runs.front().ms / best_ms)
                        .field("deterministic", deterministic)
                        .raw("metrics", metrics_snapshot)
                        .str();
  bench::write_bench_json("BENCH_rules.json", json);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* micro = std::getenv("LONGTAIL_BENCH_MICRO");
  if (micro == nullptr || std::string_view(micro) != "0")
    benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  util::metrics::set_enabled(true);
  util::profile::set_enabled(true);
  util::profile::Sampler sampler;  // stops (and emits) before trace flush
  emit_trajectory();
  sampler.stop();
  return 0;
}

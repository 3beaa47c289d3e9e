// Differential tests of the §VI rule layer against the code it replaced.
//
// `reference::` keeps the direct implementations: an intern per feature
// value per event, and split selection with one
// std::unordered_map<value, Subset> per feature per tree node. The
// memoised FeatureExtractor and the count-first SplitSelector must agree
// with them exactly — value ids, spaces, chosen features, partitions and
// the trees grown from them. Split selection's floating-point sums
// depend on their order, and no table notices a change of that order, so
// these tests are what pins it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/procname.hpp"
#include "dataset_fixture.hpp"
#include "features/features.hpp"
#include "rules/induction.hpp"
#include "rules/part.hpp"
#include "rules/tree.hpp"
#include "util/rng.hpp"

namespace longtail {
namespace {

using features::Feature;
using features::FeatureSpace;
using features::FeatureVector;
using features::Instance;
using features::kNumFeatures;
using rules::induction::SplitChoice;
using rules::induction::Subset;

namespace reference {

std::string_view process_type_value(const analysis::AnnotatedCorpus& a,
                                    model::ProcessId p) {
  using model::ProcessCategory;
  using model::Verdict;
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

FeatureVector extract_features(const analysis::AnnotatedCorpus& a,
                               const model::DownloadEvent& e,
                               FeatureSpace& space) {
  const auto& file = a.corpus->files[e.file.raw()];
  const auto& proc = a.corpus->processes[e.process.raw()];
  const auto& url = a.corpus->urls[e.url.raw()];

  auto signer_name = [&](bool is_signed, model::SignerId signer) {
    return is_signed ? a.corpus->signer_names.at(signer.raw())
                     : std::string_view("not-signed");
  };
  auto ca_name = [&](bool is_signed, model::CaId ca) {
    return is_signed ? a.corpus->ca_names.at(ca.raw())
                     : std::string_view("no-ca");
  };
  auto packer_name = [&](bool is_packed, model::PackerId packer) {
    return is_packed ? a.corpus->packer_names.at(packer.raw())
                     : std::string_view("not-packed");
  };

  FeatureVector x;
  auto set = [&](Feature f, std::string_view value) {
    x.values[static_cast<std::size_t>(f)] = space.intern(f, value);
  };
  set(Feature::kFileSigner, signer_name(file.is_signed, file.signer));
  set(Feature::kFileCa, ca_name(file.is_signed, file.ca));
  set(Feature::kFilePacker, packer_name(file.is_packed, file.packer));
  set(Feature::kProcessSigner, signer_name(proc.is_signed, proc.signer));
  set(Feature::kProcessCa, ca_name(proc.is_signed, proc.ca));
  set(Feature::kProcessPacker, packer_name(proc.is_packed, proc.packer));
  set(Feature::kProcessType, process_type_value(a, e.process));
  set(Feature::kAlexaBucket, features::alexa_bucket(url.alexa_rank));
  return x;
}

SplitChoice choose_split(std::span<const Instance> data,
                         const std::vector<std::uint32_t>& items,
                         std::uint32_t mal, std::uint32_t min_instances) {
  using rules::induction::entropy2;
  const double n = static_cast<double>(items.size());
  const double base_entropy = entropy2(mal, n);

  struct Candidate {
    Feature feature{};
    double gain = 0, gain_ratio = 0;
    std::unordered_map<std::uint32_t, Subset> partitions;
  };
  std::vector<Candidate> candidates;
  double gain_sum = 0;

  for (std::size_t fi = 0; fi < kNumFeatures; ++fi) {
    const auto feature = static_cast<Feature>(fi);
    std::unordered_map<std::uint32_t, Subset> parts;
    for (const auto item : items) {
      const auto& inst = data[item];
      auto& subset = parts[inst.x.at(feature)];
      subset.items.push_back(item);
      if (inst.malicious) ++subset.mal;
    }
    if (parts.size() < 2) continue;
    std::size_t viable = 0;
    for (const auto& [value, subset] : parts)
      if (subset.items.size() >= min_instances) ++viable;
    if (viable < 2) continue;

    double split_entropy = 0, split_info = 0;
    for (const auto& [value, subset] : parts) {
      const double frac = static_cast<double>(subset.items.size()) / n;
      split_entropy += frac * subset.entropy();
      split_info -= frac * std::log2(frac);
    }
    const double gain = base_entropy - split_entropy;
    if (gain <= 1e-9 || split_info <= 1e-9) continue;
    gain_sum += gain;
    candidates.push_back({feature, gain, gain / split_info, std::move(parts)});
  }
  if (candidates.empty()) return {};

  const double avg_gain = gain_sum / static_cast<double>(candidates.size());
  SplitChoice choice;
  double best_ratio = -1;
  for (auto& cand : candidates) {
    if (cand.gain + 1e-12 < avg_gain) continue;
    if (cand.gain_ratio > best_ratio) {
      best_ratio = cand.gain_ratio;
      choice.found = true;
      choice.feature = cand.feature;
      choice.partitions = std::move(cand.partitions);
    }
  }
  return choice;
}

// rules::DecisionTree's grow-and-prune, through reference::choose_split.
class Tree {
 public:
  Tree(std::span<const Instance> data, rules::TreeConfig config)
      : data_(data), config_(config) {
    std::vector<std::uint32_t> all(data.size());
    std::iota(all.begin(), all.end(), 0u);
    root_ = grow(all, 0).first;
    count(*root_);
  }

  [[nodiscard]] bool classify(const FeatureVector& x) const {
    const Node* node = root_.get();
    while (!node->is_leaf) {
      const auto it = node->children.find(x.at(node->split));
      if (it == node->children.end()) return node->majority_malicious;
      node = it->second.get();
    }
    return node->majority_malicious;
  }

  std::size_t nodes = 0, leaves = 0;

 private:
  struct Node {
    bool is_leaf = true;
    bool majority_malicious = false;
    Feature split{};
    std::unordered_map<std::uint32_t, std::unique_ptr<Node>> children;
  };

  std::pair<std::unique_ptr<Node>, double> grow(
      std::vector<std::uint32_t>& items, std::size_t depth) {
    const auto n = static_cast<std::uint32_t>(items.size());
    std::uint32_t mal = 0;
    for (const auto item : items) mal += data_[item].malicious ? 1u : 0u;
    const auto leaf_errors = std::min(mal, n - mal);
    const double leaf_est =
        n == 0 ? 0.0
               : rules::pessimistic_error_rate(leaf_errors, n,
                                               config_.pruning_confidence) *
                     static_cast<double>(n);
    auto leaf = std::make_unique<Node>();
    leaf->majority_malicious = mal * 2 > n;
    if (mal == 0 || mal == n || n < 2 * config_.min_instances ||
        depth >= config_.max_depth)
      return {std::move(leaf), leaf_est};
    auto choice = choose_split(data_, items, mal, config_.min_instances);
    if (!choice.found) return {std::move(leaf), leaf_est};

    auto node = std::make_unique<Node>();
    node->is_leaf = false;
    node->majority_malicious = leaf->majority_malicious;
    node->split = choice.feature;
    double children_est = 0;
    for (auto& [value, subset] : choice.partitions) {
      auto [child, est] = grow(subset.items, depth + 1);
      children_est += est;
      node->children.emplace(value, std::move(child));
    }
    if (leaf_est <= children_est + 0.1) return {std::move(leaf), leaf_est};
    return {std::move(node), children_est};
  }

  void count(const Node& node) {
    ++nodes;
    if (node.is_leaf) {
      ++leaves;
      return;
    }
    for (const auto& [value, child] : node.children) count(*child);
  }

  std::span<const Instance> data_;
  rules::TreeConfig config_;
  std::unique_ptr<Node> root_;
};

}  // namespace reference

// ---- split selection -------------------------------------------------

void expect_same_choice(const SplitChoice& want, const SplitChoice& got) {
  ASSERT_EQ(got.found, want.found);
  if (!want.found) return;
  ASSERT_EQ(got.feature, want.feature);
  ASSERT_EQ(got.partitions.size(), want.partitions.size());
  // Same contents in the same iteration order: DecisionTree sums its
  // children's estimates in this order.
  auto g = got.partitions.begin();
  for (const auto& [value, subset] : want.partitions) {
    ASSERT_EQ(g->first, value);
    EXPECT_EQ(g->second.items, subset.items);
    EXPECT_EQ(g->second.mal, subset.mal);
    ++g;
  }
}

// Instances whose class leans on a few features, with per-feature value
// ids drawn from `ids` (dense or spread over the whole u32 range).
std::vector<Instance> random_data(util::Rng& rng, std::size_t n,
                                  const std::vector<std::uint32_t>& ids) {
  std::array<std::uint32_t, kNumFeatures> cardinality{};
  for (auto& c : cardinality)
    c = 1 + static_cast<std::uint32_t>(rng.uniform(std::min<std::size_t>(
                ids.size(), 12)));
  std::vector<Instance> data(n);
  for (auto& inst : data) {
    double score = 0;
    for (std::size_t f = 0; f < kNumFeatures; ++f) {
      const auto k = static_cast<std::uint32_t>(rng.uniform(cardinality[f]));
      inst.x.values[f] = ids[k];
      if (f < 3) score += (k % 3 == 0) ? 1.0 : -0.5;
    }
    inst.malicious = rng.bernoulli(score > 0 ? 0.85 : 0.2);
  }
  return data;
}

std::vector<std::uint32_t> dense_ids() {
  std::vector<std::uint32_t> ids(16);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

std::vector<std::uint32_t> sparse_ids(util::Rng& rng) {
  std::vector<std::uint32_t> ids = {std::numeric_limits<std::uint32_t>::max(),
                                    0};
  while (ids.size() < 16) {
    const auto id = static_cast<std::uint32_t>(rng.next_u64());
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

// A random node: a subset of the instances, ascending as PART keeps
// them, or shuffled.
std::vector<std::uint32_t> random_node(util::Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> items;
  const double keep = 0.2 + 0.8 * static_cast<double>(rng.uniform(100)) / 100;
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.bernoulli(keep)) items.push_back(i);
  if (rng.bernoulli(0.3))
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[rng.uniform(i)]);
  return items;
}

void check_nodes(util::Rng& rng, const std::vector<Instance>& data,
                 int nodes) {
  rules::induction::SplitSelector selector(data);
  for (int t = 0; t < nodes; ++t) {
    const auto items = random_node(rng, data.size());
    std::uint32_t mal = 0;
    for (const auto item : items) mal += data[item].malicious ? 1u : 0u;
    const auto min_instances = static_cast<std::uint32_t>(1 + rng.uniform(4));
    const auto want = reference::choose_split(data, items, mal, min_instances);
    const auto got = selector.choose(items, mal, min_instances);
    ASSERT_NO_FATAL_FAILURE(expect_same_choice(want, got));
  }
}

TEST(ChooseSplitReference, RandomNodeSetsMatch) {
  util::Rng rng(20170626);
  for (int d = 0; d < 60; ++d) {
    SCOPED_TRACE(d);
    const auto data = random_data(rng, 10 + rng.uniform(400), dense_ids());
    check_nodes(rng, data, 20);
  }
}

TEST(ChooseSplitReference, SparseValueIdsMatch) {
  // Ids spread up to UINT32_MAX, as a hand-built instance may carry.
  util::Rng rng(4242);
  for (int d = 0; d < 30; ++d) {
    SCOPED_TRACE(d);
    const auto data = random_data(rng, 10 + rng.uniform(300), sparse_ids(rng));
    check_nodes(rng, data, 20);
  }
}

TEST(ChooseSplitReference, TwinFeaturesWithPermutedIdsMatch) {
  // Two features split the items into the same >= 3 groups under
  // different value ids. Their gains are equal in exact arithmetic, so
  // which one wins is decided by the order each sums its terms in —
  // the order contract, and nothing else, separates them.
  util::Rng rng(1998);
  int second_won = 0;
  for (int t = 0; t < 600; ++t) {
    SCOPED_TRACE(t);
    const auto groups = static_cast<std::uint32_t>(3 + rng.uniform(6));
    std::vector<std::uint32_t> twin_ids(64);
    std::iota(twin_ids.begin(), twin_ids.end(), 0u);
    for (std::size_t i = twin_ids.size(); i > 1; --i)
      std::swap(twin_ids[i - 1], twin_ids[rng.uniform(i)]);
    const auto first = rng.uniform(kNumFeatures);
    auto second = rng.uniform(kNumFeatures - 1);
    if (second >= first) ++second;

    std::vector<Instance> data(40 + rng.uniform(200));
    std::vector<double> lean(groups);
    for (auto& p : lean) p = static_cast<double>(rng.uniform(101)) / 100;
    for (auto& inst : data) {
      const auto g = static_cast<std::uint32_t>(rng.uniform(groups));
      for (std::size_t f = 0; f < kNumFeatures; ++f)
        inst.x.values[f] = static_cast<std::uint32_t>(rng.uniform(2));
      inst.x.values[first] = g;
      inst.x.values[second] = twin_ids[g];
      inst.malicious = rng.bernoulli(lean[g]);
    }
    std::vector<std::uint32_t> items(data.size());
    std::iota(items.begin(), items.end(), 0u);
    std::uint32_t mal = 0;
    for (const auto& inst : data) mal += inst.malicious ? 1u : 0u;

    const auto want = reference::choose_split(data, items, mal, 2);
    rules::induction::SplitSelector selector(data);
    ASSERT_NO_FATAL_FAILURE(
        expect_same_choice(want, selector.choose(items, mal, 2)));
    if (want.found &&
        static_cast<std::size_t>(want.feature) == std::max(first, second))
      ++second_won;
  }
  // The later twin wins only where its sum came out an ulp ahead; if it
  // never did, this test could not tell summation orders apart.
  EXPECT_GT(second_won, 0);
}

TEST(ChooseSplitReference, DecisionTreesMatch) {
  util::Rng rng(77);
  auto check = [](const std::vector<Instance>& data) {
    const rules::TreeConfig config{};
    const auto tree = rules::DecisionTree::build(data, config);
    const reference::Tree want(data, config);
    EXPECT_EQ(tree.node_count(), want.nodes);
    EXPECT_EQ(tree.leaf_count(), want.leaves);
    for (const auto& inst : data)
      ASSERT_EQ(tree.classify(inst.x), want.classify(inst.x));
  };
  for (int d = 0; d < 40; ++d) {
    SCOPED_TRACE(d);
    check(random_data(rng, 50 + rng.uniform(600),
                      d % 4 == 3 ? sparse_ids(rng) : dense_ids()));
  }
  // And a real training window.
  const auto& pipeline = test::shared_pipeline(0.02);
  FeatureSpace space;
  const auto window = features::build_window_dataset(
      pipeline.annotated(), space, model::Month::kMarch, model::Month::kApril);
  ASSERT_FALSE(window.train.empty());
  check(window.train);
}

// ---- feature extraction ----------------------------------------------

void expect_same_space(const FeatureSpace& want, const FeatureSpace& got) {
  for (std::size_t f = 0; f < kNumFeatures; ++f) {
    const auto feature = static_cast<Feature>(f);
    ASSERT_EQ(got.cardinality(feature), want.cardinality(feature)) << f;
    for (std::uint32_t id = 0; id < want.cardinality(feature); ++id)
      EXPECT_EQ(got.name(feature, id), want.name(feature, id));
  }
}

TEST(FeatureExtractorReference, EveryEventMatchesReference) {
  const auto& a = test::shared_pipeline(0.02).annotated();
  const auto& events = a.corpus->events;
  ASSERT_GT(events.size(), 0u);
  // Time order, then reversed: the memo must not depend on which key a
  // value first arrives through.
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed);
    FeatureSpace want_space, got_space;
    features::FeatureExtractor extract(a, got_space);
    for (std::size_t k = 0; k < events.size(); ++k) {
      const model::DownloadEvent e =
          events[reversed ? events.size() - 1 - k : k];
      ASSERT_EQ(extract(e), reference::extract_features(a, e, want_space))
          << k;
    }
    expect_same_space(want_space, got_space);
  }
}

TEST(FeatureExtractorReference, OutOfRangeNameIdThrows) {
  // One signed, packed file; every name pool has a single entry.
  telemetry::Corpus corpus;
  corpus.signer_names.intern("OnlySigner");
  corpus.ca_names.intern("OnlyCa");
  corpus.packer_names.intern("OnlyPacker");
  corpus.process_names.intern("chrome.exe");
  corpus.files.resize(1);
  corpus.processes.resize(1);
  corpus.domains.resize(1);
  corpus.domain_names.intern("example.com");
  corpus.urls.push_back({model::DomainId{0}, 10});
  auto& file = corpus.files[0];
  file.is_signed = true;
  file.is_packed = true;
  file.signer = model::SignerId{0};
  file.ca = model::CaId{0};
  file.packer = model::PackerId{0};
  analysis::AnnotatedCorpus a(corpus);
  a.labels.file_verdicts.assign(1, model::Verdict::kUnknown);
  a.labels.process_verdicts.assign(1, model::Verdict::kBenign);
  const model::DownloadEvent e{model::FileId{0}, model::MachineId{0},
                               model::ProcessId{0}, model::UrlId{0}, 0, true};

  FeatureSpace ok_space;
  features::FeatureExtractor ok(a, ok_space);
  EXPECT_NO_THROW(ok(e));

  const std::vector<std::function<void(telemetry::Corpus&)>> breakages = {
      [](telemetry::Corpus& c) { c.files[0].signer = model::SignerId{1}; },
      [](telemetry::Corpus& c) { c.files[0].ca = model::CaId{7}; },
      [](telemetry::Corpus& c) {
        c.files[0].packer = model::PackerId{~0u - 1};
      },
      [](telemetry::Corpus& c) {
        c.processes[0].is_signed = true;
        c.processes[0].signer = model::SignerId{0};
        c.processes[0].ca = model::CaId{1};
      },
  };
  for (std::size_t i = 0; i < breakages.size(); ++i) {
    SCOPED_TRACE(i);
    const auto saved_file = corpus.files[0];
    const auto saved_process = corpus.processes[0];
    breakages[i](corpus);
    FeatureSpace want_space, got_space;
    features::FeatureExtractor extract(a, got_space);
    EXPECT_THROW(reference::extract_features(a, e, want_space),
                 std::out_of_range);
    EXPECT_THROW(extract(e), std::out_of_range);
    corpus.files[0] = saved_file;
    corpus.processes[0] = saved_process;
  }
}

}  // namespace
}  // namespace longtail

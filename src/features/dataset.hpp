// Train/test window construction (§VI-D):
//   * training set  — known benign/malicious files first observed during
//                     T_tr;
//   * test set      — known benign/malicious files from T_ts, excluding
//                     any file already seen in training (the paper ensures
//                     an empty intersection);
//   * unknown set   — files from T_ts with no ground truth, to be labeled
//                     by the learned rules.
// Each file contributes one instance, built from its first download event
// inside the window.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/features.hpp"
#include "model/time.hpp"

namespace longtail::features {

struct WindowDataset {
  std::vector<Instance> train;
  std::vector<Instance> test;
  std::vector<Instance> unknowns;  // `malicious` flag is meaningless here
  std::size_t excluded_overlap = 0;  // test files dropped (seen in training)
};

struct WindowOptions {
  // The paper excludes likely-benign / likely-malicious files from
  // training because of their noise (§III). Setting this true injects
  // them as full labels — the ablation that quantifies the exclusion.
  bool include_likely_as_labels = false;
};

// The first download event of one file inside a time range.
struct FirstEvent {
  std::uint32_t file = 0;
  std::uint32_t event = 0;  // index into the corpus event table
};

// The first event of every file downloaded in [begin, end).
//
// Order contract: the list is in the iteration order of the
// std::unordered_map that collects it, and features are extracted (and
// so interned) in list order. Feature value ids therefore follow the
// standard library's hash-map internals. Changing this order (extracting
// in file-id order, say) renumbers the values, which reorders PART's
// tie-breaks and changes Tables XVI and XVII, table_expansion,
// table_likely_labels, table_training_window, table_unknown_nature and
// table_baselines at scales 0.05 and 0.10 (not at 0.02, where only the
// FeatureSpace pin of tests/rules_layer_gate_test.cpp notices).
std::vector<FirstEvent> first_events(const analysis::AnnotatedCorpus& a,
                                     model::Timestamp begin,
                                     model::Timestamp end);

// Builds the train/test/unknown instances from the first-event lists of
// the training and test ranges. A month's list can be computed once and
// shared by every window that reads it.
WindowDataset build_window_dataset(const analysis::AnnotatedCorpus& a,
                                   FeatureSpace& space,
                                   std::span<const FirstEvent> train_first,
                                   std::span<const FirstEvent> test_first,
                                   WindowOptions options = {});

// The same for one (training month, test month) window.
WindowDataset build_window_dataset(const analysis::AnnotatedCorpus& a,
                                   FeatureSpace& space, model::Month train,
                                   model::Month test,
                                   WindowOptions options = {});

// All labeled instances over an arbitrary [begin, end) time range — used
// by benchmarks that train on more than one month.
std::vector<Instance> labeled_instances(const analysis::AnnotatedCorpus& a,
                                        FeatureSpace& space,
                                        model::Timestamp begin,
                                        model::Timestamp end);

}  // namespace longtail::features

#include "features/dataset.hpp"

#include <algorithm>
#include <unordered_map>

#include "telemetry/scan.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::features {

namespace {

using model::Verdict;

// Deterministic instance order regardless of hash-map iteration.
void sort_by_file(std::vector<Instance>& v) {
  std::sort(v.begin(), v.end(), [](const Instance& a, const Instance& b) {
    return a.file < b.file;
  });
}

}  // namespace

std::vector<FirstEvent> first_events(const analysis::AnnotatedCorpus& a,
                                     model::Timestamp begin,
                                     model::Timestamp end) {
  // Shards fold time-ordered slices and combines run in ascending shard
  // order, so try_emplace keeps the earliest event index — same first-wins
  // result as the serial pass.
  using FirstMap = std::unordered_map<std::uint32_t, std::uint32_t>;
  const auto lo = telemetry::lower_bound_time(*a.corpus, begin);
  const auto hi = telemetry::lower_bound_time(*a.corpus, end);
  const auto first = telemetry::scan_reduce(
      *a.corpus, lo, hi, [] { return FirstMap{}; },
      [](FirstMap& first, const auto& e) {
        first.try_emplace(e.file().raw(),
                          static_cast<std::uint32_t>(e.index()));
      },
      [](FirstMap& total, FirstMap&& shard) {
        for (const auto& [file, i] : shard) total.try_emplace(file, i);
      },
      "features.first_events");
  std::vector<FirstEvent> out;
  out.reserve(first.size());
  for (const auto& [file, event] : first) out.push_back({file, event});
  return out;
}

std::vector<Instance> labeled_instances(const analysis::AnnotatedCorpus& a,
                                        FeatureSpace& space,
                                        model::Timestamp begin,
                                        model::Timestamp end) {
  FeatureExtractor extract(a, space);
  std::vector<Instance> out;
  for (const auto& [file, event] : first_events(a, begin, end)) {
    const auto v = a.labels.file_verdicts[file];
    if (v != Verdict::kBenign && v != Verdict::kMalicious) continue;
    out.push_back(Instance{extract(a.corpus->events[event]),
                           v == Verdict::kMalicious, model::FileId{file}});
  }
  sort_by_file(out);
  return out;
}

WindowDataset build_window_dataset(const analysis::AnnotatedCorpus& a,
                                   FeatureSpace& space,
                                   std::span<const FirstEvent> train_first,
                                   std::span<const FirstEvent> test_first,
                                   WindowOptions options) {
  LONGTAIL_TRACE_SPAN("features.build_window_dataset");
  FeatureExtractor extract(a, space);
  WindowDataset out;
  // Files first downloaded in training; the intersection between
  // training and test downloads must be empty.
  std::vector<bool> in_train(a.corpus->files.size());

  for (const auto& [file, event] : train_first) {
    in_train[file] = true;
    const auto v = a.labels.file_verdicts[file];
    bool is_label = v == Verdict::kBenign || v == Verdict::kMalicious;
    bool malicious = v == Verdict::kMalicious;
    if (!is_label && options.include_likely_as_labels &&
        (v == Verdict::kLikelyBenign || v == Verdict::kLikelyMalicious)) {
      is_label = true;
      malicious = v == Verdict::kLikelyMalicious;
    }
    if (!is_label) continue;
    out.train.push_back(Instance{extract(a.corpus->events[event]),
                                 malicious, model::FileId{file}});
  }

  for (const auto& [file, event] : test_first) {
    if (in_train[file]) {
      ++out.excluded_overlap;
      continue;
    }
    const auto v = a.labels.file_verdicts[file];
    if (v == Verdict::kBenign || v == Verdict::kMalicious) {
      out.test.push_back(Instance{extract(a.corpus->events[event]),
                                  v == Verdict::kMalicious,
                                  model::FileId{file}});
    } else if (v == Verdict::kUnknown) {
      out.unknowns.push_back(Instance{extract(a.corpus->events[event]),
                                      false, model::FileId{file}});
    }
  }
  sort_by_file(out.train);
  sort_by_file(out.test);
  sort_by_file(out.unknowns);
  LONGTAIL_METRIC_COUNT("features.train_instances", out.train.size());
  LONGTAIL_METRIC_COUNT("features.test_instances", out.test.size());
  LONGTAIL_METRIC_COUNT("features.unknown_instances", out.unknowns.size());
  return out;
}

WindowDataset build_window_dataset(const analysis::AnnotatedCorpus& a,
                                   FeatureSpace& space, model::Month train,
                                   model::Month test, WindowOptions options) {
  const auto train_first =
      first_events(a, model::month_begin(train), model::month_end(train));
  const auto test_first =
      first_events(a, model::month_begin(test), model::month_end(test));
  return build_window_dataset(a, space, train_first, test_first, options);
}

}  // namespace longtail::features

#include "synth/chains.hpp"

#include <algorithm>
#include <array>

#include "util/flat_table.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::synth::chains {

namespace {

constexpr std::uint64_t kDemandSalt = 0x44454D44ULL;     // "DEMD"
constexpr std::uint64_t kConsumerSalt = 0x434F4E53ULL;   // "CONS"
constexpr std::uint64_t kPartitionSalt = 0x50415254ULL;  // "PART"
constexpr std::uint64_t kFixupSalt = 0x46495855ULL;      // "FIXU"

std::size_t partition_of(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t key, std::size_t k) {
  return static_cast<std::size_t>(util::mix64(seed ^ salt ^ util::mix64(key)) %
                                  k);
}

constexpr std::size_t kind_index(QueueKind k) {
  return static_cast<std::size_t>(k);
}

constexpr QueueKind other_kind(QueueKind k) {
  return k == QueueKind::kAdwarePup ? QueueKind::kDropper
                                    : QueueKind::kAdwarePup;
}

// Takes the most recently shuffled demand whose machine the file has not
// used yet (swap-remove). Returns kUnmatched when every queued demand
// collides with the file's machines.
std::uint32_t take_free(std::vector<std::uint32_t>& queue,
                        std::span<const Demand> demands,
                        const std::vector<model::MachineId>& used) {
  for (std::size_t j = queue.size(); j > 0; --j) {
    const std::uint32_t di = queue[j - 1];
    if (std::find(used.begin(), used.end(), demands[di].machine) ==
        used.end()) {
      queue[j - 1] = queue.back();
      queue.pop_back();
      return di;
    }
  }
  return kUnmatched;
}

struct PartitionOutput {
  std::vector<std::uint32_t> spilled;    // consumer indices, ascending
  std::vector<std::uint32_t> leftovers;  // demand indices, post-shuffle order
};

}  // namespace

MatchResult match_demands(std::uint64_t seed,
                          std::span<const Demand> demands,
                          std::span<const Consumer> consumers,
                          std::size_t partitions) {
  LONGTAIL_TRACE_SPAN_DETAIL(
      "synth.chains.match",
      "demands=" + std::to_string(demands.size()) +
          " consumers=" + std::to_string(consumers.size()));

  MatchResult result;
  result.demand_for_consumer.assign(consumers.size(), kUnmatched);
  result.stats.demands = demands.size();
  result.stats.consumers = consumers.size();

  const std::size_t k = std::max<std::size_t>(1, partitions);

  // Shard demands by machine and consumers by file. A file's consumers
  // are contiguous in the input, so they stay contiguous (and ascending)
  // within their partition — the per-file used-machine scan below relies
  // on that.
  std::vector<std::vector<std::uint32_t>> demand_parts(k);
  for (std::uint32_t i = 0; i < demands.size(); ++i)
    demand_parts[partition_of(seed, kDemandSalt, demands[i].machine.raw(), k)]
        .push_back(i);
  std::vector<std::vector<std::uint32_t>> consumer_parts(k);
  for (std::uint32_t i = 0; i < consumers.size(); ++i)
    consumer_parts[partition_of(seed, kConsumerSalt, consumers[i].file, k)]
        .push_back(i);

  // Phase 1: independent per-partition matching. Each partition only
  // writes its own consumers' slots, so the parallel loop is race-free
  // and the outcome is a pure function of (seed, partition contents).
  std::vector<PartitionOutput> outputs(k);
  util::parallel_for(k, [&](std::size_t p) {
    util::Rng rng = util::substream(seed, kPartitionSalt, p);
    std::array<std::vector<std::uint32_t>, kNumQueueKinds> queues;
    for (const std::uint32_t di : demand_parts[p])
      queues[kind_index(demands[di].kind)].push_back(di);
    rng.shuffle(queues[0]);
    rng.shuffle(queues[1]);

    std::vector<model::MachineId> used;
    std::uint32_t current_file = 0;
    bool have_file = false;
    for (const std::uint32_t ci : consumer_parts[p]) {
      const Consumer& c = consumers[ci];
      if (!have_file || c.file != current_file) {
        current_file = c.file;
        have_file = true;
        used.clear();
      }
      auto& preferred = queues[kind_index(c.preferred)];
      auto& fallback = queues[kind_index(other_kind(c.preferred))];
      std::uint32_t di = take_free(preferred, demands, used);
      if (di == kUnmatched) di = take_free(fallback, demands, used);
      if (di == kUnmatched) {
        outputs[p].spilled.push_back(ci);
        continue;
      }
      result.demand_for_consumer[ci] = di;
      used.push_back(demands[di].machine);
    }
    outputs[p].leftovers.reserve(queues[0].size() + queues[1].size());
    for (const auto& q : queues)
      outputs[p].leftovers.insert(outputs[p].leftovers.end(), q.begin(),
                                  q.end());
  });

  // Phase 2: serial fixup. Spilled consumers draw from the pooled
  // leftovers of every partition so local shortages never strand global
  // supply. All ordering below is derived from the inputs, never from
  // scheduling.
  std::vector<std::uint32_t> spilled;
  std::array<std::vector<std::uint32_t>, kNumQueueKinds> pools;
  for (const auto& out : outputs) {
    spilled.insert(spilled.end(), out.spilled.begin(), out.spilled.end());
    for (const std::uint32_t di : out.leftovers)
      pools[kind_index(demands[di].kind)].push_back(di);
  }
  std::sort(spilled.begin(), spilled.end());
  result.stats.spilled = spilled.size();

  if (!spilled.empty()) {
    util::Rng rng = util::substream(seed, kFixupSalt, 0);
    rng.shuffle(pools[0]);
    rng.shuffle(pools[1]);

    // Machines already assigned to the spilling files (their partition
    // round may have matched earlier slots before running dry).
    util::FlatSet<std::uint32_t> spilled_files;
    for (const std::uint32_t ci : spilled)
      spilled_files.insert(consumers[ci].file);
    util::FlatMap<std::uint32_t, std::vector<model::MachineId>> used_by_file;
    for (std::uint32_t ci = 0; ci < consumers.size(); ++ci) {
      const std::uint32_t di = result.demand_for_consumer[ci];
      if (di != kUnmatched && spilled_files.contains(consumers[ci].file))
        used_by_file[consumers[ci].file].push_back(demands[di].machine);
    }

    for (const std::uint32_t ci : spilled) {
      const Consumer& c = consumers[ci];
      auto& used = used_by_file[c.file];
      std::uint32_t di =
          take_free(pools[kind_index(c.preferred)], demands, used);
      if (di == kUnmatched)
        di = take_free(pools[kind_index(other_kind(c.preferred))], demands,
                       used);
      if (di == kUnmatched) continue;
      result.demand_for_consumer[ci] = di;
      used.push_back(demands[di].machine);
      ++result.stats.fixup_matched;
    }
  }

  result.leftover_demands.reserve(pools[0].size() + pools[1].size());
  for (const auto& pool : pools)
    result.leftover_demands.insert(result.leftover_demands.end(), pool.begin(),
                                   pool.end());
  result.stats.leftover_demands = result.leftover_demands.size();
  for (const std::uint32_t di : result.demand_for_consumer)
    result.stats.matched += di != kUnmatched;

  LONGTAIL_METRIC_COUNT("synth.chain.partitions", k);
  LONGTAIL_METRIC_COUNT("synth.chain.spilled_consumers",
                        result.stats.spilled);
  LONGTAIL_METRIC_COUNT("synth.chain.fixup_matched",
                        result.stats.fixup_matched);
  return result;
}

model::Timestamp transition_delta(model::MalwareType initiator,
                                  const TransitionCalibration& tr,
                                  util::Rng& rng) {
  double day0 = tr.default_day0, mean = tr.default_mean_days;
  switch (initiator) {
    case model::MalwareType::kDropper:
      day0 = tr.dropper_day0;
      mean = tr.dropper_mean_days;
      break;
    case model::MalwareType::kAdware:
      day0 = tr.adware_day0;
      mean = tr.adware_mean_days;
      break;
    case model::MalwareType::kPup:
      day0 = tr.pup_day0;
      mean = tr.pup_mean_days;
      break;
    default:
      break;
  }
  const double days = rng.bernoulli(day0) ? rng.uniform01() * 0.9
                                          : 1.0 + rng.exponential(mean);
  return static_cast<model::Timestamp>(days * 86'400.0);
}

}  // namespace longtail::synth::chains

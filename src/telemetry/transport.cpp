#include "telemetry/transport.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "model/time.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::telemetry {

namespace {

constexpr std::uint64_t kTransportSalt = 0x5452414E53504F52ULL;  // "TRANSPOR"
constexpr std::uint64_t kSkewSalt = 0x534B4557ULL;               // "SKEW"

// Corruption targets: out-of-range ids / impossible timestamps — always
// detectable by the server's payload validation, never silently wrong.
constexpr std::uint32_t kCorruptIdBit = 0x4000'0000u;
constexpr model::Timestamp kCorruptTimeOffset = 1'000'000'000;  // ~31 years

// Per-report fault substream: a pure function of (seed, report_id), same
// values no matter which thread evaluates it (the generator's substream
// pattern).
util::Rng report_substream(std::uint64_t seed, std::uint64_t report_id) {
  return util::Rng(util::mix64(seed ^ kTransportSalt) ^
                   util::mix64(report_id * 0x9E3779B97F4A7C15ULL +
                               kTransportSalt));
}

// Bounded per-machine agent-clock offset in [-skew, +skew] seconds.
model::Timestamp machine_skew(std::uint64_t seed, model::MachineId machine,
                              double skew_s) {
  if (skew_s <= 0.0) return 0;
  const std::uint64_t h =
      util::mix64((seed ^ kSkewSalt) + machine.raw() * 0xD6E8FEB86659FD93ULL);
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
  return static_cast<model::Timestamp>((2.0 * u - 1.0) * skew_s);
}

void corrupt_payload(model::DownloadEvent& e, util::Rng& rng) {
  switch (rng.uniform(4)) {
    case 0:
      e.url = model::UrlId{e.url.raw() | kCorruptIdBit};
      break;
    case 1:
      e.file = model::FileId{e.file.raw() | kCorruptIdBit};
      break;
    case 2:
      e.time = -1 - e.time;  // negative: before the collection window
      break;
    default:
      e.time += kCorruptTimeOffset;  // decades past the window
      break;
  }
}

}  // namespace

std::vector<DeliveredReport> FaultyTransport::deliver(
    std::span<const model::DownloadEvent> raw) {
  LONGTAIL_TRACE_SPAN_DETAIL("telemetry.transport.deliver",
                             "reports=" + std::to_string(raw.size()));
  stats_ = TransportStats{};
  stats_.reports_offered = raw.size();

  if (!profile_.transport_active()) {
    // Fault-free channel: every report arrives exactly once, in order,
    // uncorrupted, with arrival == occurrence. No RNG is consumed.
    std::vector<DeliveredReport> out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      out.push_back(DeliveredReport{raw[i], i, raw[i].time, 0, false});
    stats_.delivered = out.size();
    return out;
  }

  const model::Timestamp period_end =
      model::kMonthStart[model::kNumCalendarMonths];
  // Per-report delivery plans, drawn from per-report substreams. The
  // parallel fan-out only affects wall time — every plan is a pure
  // function of (seed_, report_id).
  auto plans = util::parallel_map(
      raw.size(),
      [&](std::size_t i) {
        std::vector<DeliveredReport> copies;
        util::Rng rng = report_substream(seed_, i);
        if (rng.bernoulli(profile_.drop_rate)) return copies;  // offline

        model::DownloadEvent reported = raw[i];
        reported.time = std::clamp<model::Timestamp>(
            reported.time +
                machine_skew(seed_, reported.machine, profile_.clock_skew_s),
            0, period_end - 1);

        const auto jitter = static_cast<model::Timestamp>(
            rng.uniform01() * profile_.delivery_jitter_s);
        model::Timestamp arrival = raw[i].time + jitter;
        for (std::uint32_t copy = 0;; ++copy) {
          DeliveredReport r{reported, i, arrival,
                            static_cast<std::uint8_t>(copy), false};
          if (rng.bernoulli(profile_.corrupt_rate)) {
            r.corrupted = true;
            corrupt_payload(r.event, rng);
          }
          copies.push_back(r);
          if (copy >= profile_.max_retransmits ||
              !rng.bernoulli(profile_.ack_loss_rate))
            break;
          // Lost ack: the agent resends after capped exponential backoff.
          arrival += static_cast<model::Timestamp>(
              std::min(profile_.backoff_base_s * std::exp2(copy),
                       profile_.backoff_cap_s));
        }
        return copies;
      },
      /*grain=*/1024);

  std::vector<DeliveredReport> out;
  for (const auto& plan : plans) {
    if (plan.empty()) {
      ++stats_.dropped_offline;
      continue;
    }
    stats_.delivered += plan.size();
    stats_.duplicates += plan.size() - 1;
    for (const auto& r : plan) {
      if (r.corrupted) ++stats_.corrupted;
      out.push_back(r);
    }
  }

  // Delivery order: arrival time, ties broken by (report_id, copy) — a
  // unique total order, so the stream is identical across runs.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.arrival, a.report_id, a.copy) <
           std::tie(b.arrival, b.report_id, b.copy);
  });

  LONGTAIL_METRIC_COUNT("telemetry.transport.reports_delivered",
                        stats_.delivered);
  LONGTAIL_METRIC_COUNT("telemetry.transport.dropped_offline",
                        stats_.dropped_offline);
  LONGTAIL_METRIC_COUNT("telemetry.transport.duplicates", stats_.duplicates);
  LONGTAIL_METRIC_COUNT("telemetry.transport.corrupted", stats_.corrupted);
  return out;
}

}  // namespace longtail::telemetry

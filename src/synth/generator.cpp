#include "synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <span>

#include "groundtruth/avsim.hpp"
#include "synth/chains.hpp"
#include "synth/world.hpp"
#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/zipf.hpp"

namespace longtail::synth {

namespace {

using model::BrowserKind;
using model::DomainId;
using model::FileId;
using model::MachineId;
using model::MalwareType;
using model::ProcessCategory;
using model::ProcessId;
using model::Timestamp;
using model::UrlId;
using model::Verdict;

constexpr std::size_t idx(MalwareType t) { return static_cast<std::size_t>(t); }

// Chain roles (Fig. 5): adware/PUP/dropper events prime machines for
// follow-up malware; labeled other-malware events consume those demands.
constexpr bool is_chain_initiator(MalwareType t) {
  return t == MalwareType::kAdware || t == MalwareType::kPup ||
         t == MalwareType::kDropper;
}
constexpr bool is_other_malware_type(MalwareType t) {
  return t != MalwareType::kAdware && t != MalwareType::kPup &&
         t != MalwareType::kUndefined;
}

// Substream salts for the parallel resolution phases. Each phase keys
// its per-item generator on (seed, salt, item) so the draws are
// independent of thread count and of every other phase.
constexpr std::uint64_t kIndependentSalt = 0x494E4451ULL;  // "INDQ"
constexpr std::uint64_t kChainPlanSalt = 0x43504C4EULL;    // "CPLN"
constexpr std::uint64_t kChainFillSalt = 0x4346494CULL;    // "CFIL"
constexpr std::uint64_t kPendingSalt = 0x50454E44ULL;      // "PEND"
constexpr std::uint64_t kRepeatSalt = 0x52505453ULL;       // "RPTS"
constexpr std::uint64_t kMatchRoundA = 0x43484E31ULL;      // "CHN1"
constexpr std::uint64_t kMatchRoundB = 0x43484E32ULL;      // "CHN2"

// Downloader categories for the joint (file class x downloader) matrix.
constexpr int kCatBrowser = 0;
constexpr int kCatWindows = 1;
constexpr int kCatJava = 2;
constexpr int kCatAcrobat = 3;
constexpr int kCatOther = 4;
constexpr int kCatMalProcBase = 5;  // + malware type index
constexpr int kCatUnknownProc = 5 + static_cast<int>(model::kNumMalwareTypes);
constexpr int kNumCats = kCatUnknownProc + 1;

// File-class keys for the matrix.
constexpr int kClassBenign = 0;
constexpr int kClassUnknown = 1;
constexpr int kClassMalBase = 2;  // + malware type index
constexpr int kNumClasses =
    kClassMalBase + static_cast<int>(model::kNumMalwareTypes);

struct FileDraft {
  Verdict intended{};
  Nature nature{};
  MalwareType type = MalwareType::kUndefined;
  std::uint32_t family = TruthTable::kNoFamily;
  bool extractable = false;
  std::uint8_t month = 0;
  std::uint32_t prevalence = 1;
  std::uint32_t repeats = 0;
  int primary_cat = kCatBrowser;
  Timestamp first_time = 0;
  UrlId primary_url;
  // Scenario flash-crowd width: when > 0, every download of this file
  // lands within [first_time, first_time + window_s) instead of the
  // calibrated weeks-long exponential spread. 0 for the seed world.
  double window_s = 0;
  // Scenario PPI rotation: this file's downloader categories go through
  // ppi_rotate_cat. False for the seed world.
  bool ppi_shifted = false;
};

// PPI-style distribution rotation: browser-delivered files move to
// pay-per-install dropper chains, and each malware downloader type hands
// its traffic to the next type in the rotation. Benign system categories
// (updaters, Java, Acrobat) and unknown processes are untouched.
inline int ppi_rotate_cat(int cat) {
  if (cat == kCatBrowser)
    return kCatMalProcBase + static_cast<int>(idx(MalwareType::kDropper));
  if (cat >= kCatMalProcBase && cat < kCatUnknownProc) {
    const int t = cat - kCatMalProcBase;
    return kCatMalProcBase +
           (t + 1) % static_cast<int>(model::kNumMalwareTypes);
  }
  return cat;
}

// A raw event pending machine/time resolution against the infection
// registry (downloads initiated by malicious processes).
struct PendingMalProcEvent {
  std::uint32_t file = 0;
  MalwareType proc_type = MalwareType::kUndefined;
};

struct InfectionRecord {
  MachineId machine;
  Timestamp time;
};

class Generator {
 public:
  explicit Generator(const CalibrationProfile& profile)
      : profile_(profile),
        rng_(profile.seed),
        avsim_({}, profile.seed ^ 0x5EEDF00D),
        world_(build_world(profile, rng_, avsim_)) {}

  Dataset run();

 private:
  // Evidence a file contributes to ground truth, computed in parallel per
  // file and applied serially in file order.
  struct EvidenceDraft {
    enum class Kind : std::uint8_t { kNone, kWhitelist, kReport };
    Kind kind = Kind::kNone;
    groundtruth::VtReport report;
  };

  void build_cat_samplers();
  void compute_signer_prefixes();
  void draft_files();
  void apply_scenario();
  [[nodiscard]] model::FileMeta draft_file_meta(std::uint32_t file_index,
                                                const FileDraft& d) const;
  void materialize_files();
  void resolve_events();
  void resolve_pending();
  void resolve_repeats();
  void add_decoys();
  void finalize_corpus();
  [[nodiscard]] EvidenceDraft draft_file_evidence(std::uint32_t file_index,
                                                  const FileDraft& d) const;
  void build_file_evidence();

  // Independent per-item RNG substream: derived from the master seed and
  // the item index alone, so the values an item draws are the same
  // whether items are processed serially or across N threads.
  [[nodiscard]] util::Rng substream(std::uint64_t salt,
                                    std::uint64_t index) const {
    return util::substream(profile_.seed, salt, index);
  }

  [[nodiscard]] int class_key(const FileDraft& d) const {
    switch (d.intended) {
      case Verdict::kBenign:
      case Verdict::kLikelyBenign:
        return kClassBenign;
      case Verdict::kMalicious:
      case Verdict::kLikelyMalicious:
        return kClassMalBase + static_cast<int>(idx(d.type));
      case Verdict::kUnknown:
        return kClassUnknown;
    }
    return kClassUnknown;
  }

  // Zipf-ish head-heavy index into a pool of size n.
  static std::size_t head_heavy(util::Rng& rng, std::size_t n, double alpha) {
    if (n == 0) return 0;
    const auto r = static_cast<std::size_t>(
        static_cast<double>(n) * std::pow(rng.uniform01(), alpha));
    return std::min(r, n - 1);
  }
  std::size_t head_heavy(std::size_t n, double alpha) {
    return head_heavy(rng_, n, alpha);
  }

  enum class MachinePool { kPlain, kRisky, kHeavy };

  // One resolved event, staged by a parallel worker and applied serially
  // in deterministic order. Secondary URLs are minted at merge time
  // (url_on_domain mutates the shared URL table) — workers only record
  // the chosen domain.
  struct EventPlan {
    std::uint32_t file = 0;
    MachineId machine;
    ProcessId process;
    UrlId url;
    DomainId domain;
    Timestamp time = 0;
    bool needs_url = false;
  };

  // Per-file worker output: events plus the demands/pending slots the
  // file contributed, merged in file-id order.
  struct FileResolution {
    std::vector<EventPlan> events;
    std::vector<chains::Demand> demands;
    std::vector<PendingMalProcEvent> pending;
  };

  // Pre-match sweep output for one event slot of a chain file: every
  // draw that does not depend on the matched machine happens here, so
  // the fill pass is a pure function of (plan, match assignment).
  struct SlotPlan {
    Timestamp time = 0;
    std::uint64_t slot_seed = 0;
    DomainId domain;
    int cat = 0;
    bool is_pending = false;
    bool wants_demand = false;
    bool primary_url = true;
    chains::QueueKind preferred = chains::QueueKind::kAdwarePup;
  };

  [[nodiscard]] FileResolution resolve_independent_file(
      std::uint32_t f) const;
  [[nodiscard]] std::vector<SlotPlan> plan_chain_file(std::uint32_t f) const;
  [[nodiscard]] FileResolution fill_chain_file(
      std::uint32_t f, const std::vector<SlotPlan>& plan,
      std::span<const chains::Demand> demands,
      std::span<const std::uint32_t> assignment) const;
  void emit_plan(const EventPlan& p, bool track_registry);

  DomainId pick_domain(const FileDraft& d, util::Rng& rng) const;
  UrlId url_on_domain(DomainId domain);

  // Machines are active in short sessions (~5-day buckets, ~5% of buckets
  // active): people install software in bursts. This produces the paper's
  // monthly machine counts (each month sees ~25% of the population) and
  // the short benign->malware deltas of Fig. 5's control curve.
  static bool machine_active_at(MachineId m, Timestamp t) {
    const auto bucket =
        static_cast<std::uint64_t>(t / (5 * model::kSecondsPerDay));
    return util::mix64(m.raw() * 0x9E3779B97F4A7C15ULL +
                       bucket * 0xD6E8FEB86659FD93ULL) %
               100 <
           5;
  }
  MachineId pick_machine(MachinePool pool, const std::vector<MachineId>& used,
                         Timestamp t, util::Rng& rng) const;
  ProcessId process_for(int cat, MachineId machine, util::Rng& rng) const;

  CalibrationProfile profile_;
  util::Rng rng_;
  groundtruth::AvSimulator avsim_;
  World world_;

  std::vector<FileDraft> drafts_;
  std::array<util::DiscreteSampler, kNumClasses> cat_samplers_;
  telemetry::CollectionStats collection_stats_;
  telemetry::TransportStats transport_stats_;

  util::DiscreteSampler malicious_type_sampler_;
  util::DiscreteSampler unknown_mal_type_sampler_;

  // Active-signer prefixes: a signer that is "in business" signs several
  // files every month. Drawing from a truncated popularity head instead of
  // the whole pool removes the sampling-noise band of signers with ~1 file
  // per month, which would otherwise look class-exclusive in one training
  // window and flip in the next (destroying the paper's <0.32% FP rate).
  std::size_t benign_signer_prefix_ = 0;
  std::array<std::size_t, model::kNumMalwareTypes> type_signer_prefix_{};
  std::uint32_t zbot_family_ = TruthTable::kNoFamily;

  std::vector<model::DownloadEvent> raw_events_;
  // Per-file resolved event indexes (for repeats).
  std::vector<std::vector<std::uint32_t>> file_events_;
  std::vector<PendingMalProcEvent> pending_;
  std::array<std::vector<InfectionRecord>, model::kNumMalwareTypes> registry_;
  std::unordered_map<std::uint32_t, std::vector<UrlId>> domain_urls_;
};

void Generator::build_cat_samplers() {
  const auto& procs = profile_.benign_procs;
  // Joint event counts J[class][cat] from Tables X and XII.
  std::array<std::array<double, kNumCats>, kNumClasses> j{};

  auto benign_cat_index = [](std::size_t row) {
    switch (row) {
      case 0: return kCatBrowser;
      case 1: return kCatWindows;
      case 2: return kCatJava;
      case 3: return kCatAcrobat;
      default: return kCatOther;
    }
  };

  for (std::size_t row = 0; row < procs.size(); ++row) {
    const auto cat = benign_cat_index(row);
    j[kClassBenign][cat] += static_cast<double>(procs[row].benign_files);
    j[kClassUnknown][cat] += static_cast<double>(procs[row].unknown_files);
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
      j[kClassMalBase + t][cat] +=
          static_cast<double>(procs[row].malicious_files) *
          procs[row].malicious_type_pct[t];
  }
  for (const auto& mp : profile_.mal_procs) {
    const int cat = kCatMalProcBase + static_cast<int>(idx(mp.type));
    j[kClassBenign][cat] += static_cast<double>(mp.benign_files);
    j[kClassUnknown][cat] += static_cast<double>(mp.unknown_files);
    for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
      j[kClassMalBase + t][cat] +=
          static_cast<double>(mp.malicious_files) * mp.malicious_type_pct[t];
  }
  // Events by processes that stay unknown to ground truth: a small share
  // on top, proportional to each class's row sum.
  const double share = profile_.unknown_process_event_share;
  for (auto& row : j) {
    double sum = 0;
    for (double v : row) sum += v;
    row[kCatUnknownProc] = sum * share / (1.0 - share);
  }
  for (int c = 0; c < kNumClasses; ++c)
    cat_samplers_[c] = util::DiscreteSampler(j[c]);
}

void Generator::draft_files() {
  if (const auto zbot = world_.corpus.family_names.find("zbot"))
    zbot_family_ = *zbot;
  // Normalize monthly file counts so they sum to the paper's distinct-file
  // total (monthly columns of Table I double-count files spanning months).
  double month_sum = 0;
  for (const auto& m : profile_.months)
    month_sum += static_cast<double>(m.files);
  const double norm = static_cast<double>(profile_.total_files) / month_sum;

  malicious_type_sampler_ = util::DiscreteSampler(profile_.malware_type_pct);
  unknown_mal_type_sampler_ =
      util::DiscreteSampler(profile_.unknown_nature.malicious_type_pct);

  util::ZipfSampler prev_unknown(profile_.prevalence.max_prevalence,
                                 profile_.prevalence.unknown_s);
  util::ZipfSampler prev_benign(profile_.prevalence.max_prevalence,
                                profile_.prevalence.benign_s);
  util::ZipfSampler prev_malicious(profile_.prevalence.max_prevalence,
                                   profile_.prevalence.malicious_s);

  for (std::size_t m = 0; m < model::kNumCollectionMonths; ++m) {
    const auto& cal = profile_.months[m];
    const auto n_files = static_cast<std::uint64_t>(
        static_cast<double>(cal.files) * norm * profile_.scale);
    std::uint64_t month_events = 0;
    const auto month_begin =
        model::month_begin(static_cast<model::Month>(m));
    const auto month_len =
        model::month_end(static_cast<model::Month>(m)) - month_begin;

    const std::size_t month_first_draft = drafts_.size();
    for (std::uint64_t i = 0; i < n_files; ++i) {
      FileDraft d;
      d.month = static_cast<std::uint8_t>(m);
      const double r = rng_.uniform01();
      if (r < cal.file_benign) {
        d.intended = Verdict::kBenign;
      } else if (r < cal.file_benign + cal.file_likely_benign) {
        d.intended = Verdict::kLikelyBenign;
      } else if (r < cal.file_benign + cal.file_likely_benign +
                         cal.file_malicious) {
        d.intended = Verdict::kMalicious;
      } else if (r < cal.file_benign + cal.file_likely_benign +
                         cal.file_malicious + cal.file_likely_malicious) {
        d.intended = Verdict::kLikelyMalicious;
      } else {
        d.intended = Verdict::kUnknown;
      }

      switch (d.intended) {
        case Verdict::kBenign:
          d.nature = Nature::kBenign;
          d.prevalence =
              static_cast<std::uint32_t>(prev_benign.sample(rng_));
          break;
        case Verdict::kLikelyBenign:
          // "Likely" verdicts are the noisy band the paper excludes
          // (§III): a slice of them is wrong.
          d.nature = rng_.bernoulli(0.15) ? Nature::kMalicious
                                          : Nature::kBenign;
          if (d.nature == Nature::kMalicious)
            d.type = static_cast<MalwareType>(
                unknown_mal_type_sampler_.sample(rng_));
          d.prevalence =
              static_cast<std::uint32_t>(prev_benign.sample(rng_));
          break;
        case Verdict::kMalicious:
          d.nature = Nature::kMalicious;
          d.type = static_cast<MalwareType>(
              malicious_type_sampler_.sample(rng_));
          d.prevalence =
              static_cast<std::uint32_t>(prev_malicious.sample(rng_));
          break;
        case Verdict::kLikelyMalicious:
          d.nature = rng_.bernoulli(0.20) ? Nature::kBenign
                                          : Nature::kMalicious;
          if (d.nature == Nature::kMalicious)
            d.type = static_cast<MalwareType>(
                malicious_type_sampler_.sample(rng_));
          d.prevalence =
              static_cast<std::uint32_t>(prev_malicious.sample(rng_));
          break;
        case Verdict::kUnknown:
          if (rng_.bernoulli(profile_.unknown_nature.benign_fraction)) {
            d.nature = Nature::kBenign;
          } else {
            d.nature = Nature::kMalicious;
            d.type = static_cast<MalwareType>(
                unknown_mal_type_sampler_.sample(rng_));
          }
          d.prevalence =
              static_cast<std::uint32_t>(prev_unknown.sample(rng_));
          break;
      }

      if (d.nature == Nature::kMalicious) {
        d.family = world_.family_ids[head_heavy(world_.family_ids.size(), 3.0)];
        // Families with a known behaviour override (zbot = banking theft)
        // belong to their own type; handing them to, say, a signed dropper
        // would make AVType mislabel it banker and distort Table VI.
        for (int tries = 0; d.family == zbot_family_ &&
                            d.type != MalwareType::kBanker && tries < 8;
             ++tries)
          d.family =
              world_.family_ids[head_heavy(world_.family_ids.size(), 3.0)];
        if (d.type == MalwareType::kBanker && rng_.bernoulli(0.5))
          d.family = zbot_family_;
        d.extractable = rng_.bernoulli(0.42);
      }

      d.primary_cat =
          static_cast<int>(cat_samplers_[class_key(d)].sample(rng_));
      d.first_time =
          month_begin + static_cast<Timestamp>(rng_.uniform(
                            static_cast<std::uint64_t>(month_len)));
      month_events += d.prevalence;
      drafts_.push_back(d);
    }

    // Repeat downloads (same machine re-fetching a file) top the month up
    // to its Table I event count.
    const auto target = static_cast<std::uint64_t>(
        static_cast<double>(cal.events) * profile_.scale);
    const std::size_t month_drafts = drafts_.size() - month_first_draft;
    if (month_drafts == 0) continue;
    // Repeats land on popular files (prevalence-weighted): re-downloads in
    // the wild are dominated by widely-distributed installers.
    std::vector<double> repeat_w(month_drafts);
    for (std::size_t i = 0; i < month_drafts; ++i) {
      const auto& d = drafts_[month_first_draft + i];
      repeat_w[i] = static_cast<double>(d.prevalence) *
                    (d.intended == Verdict::kUnknown ? 0.35 : 1.0);
    }
    const util::DiscreteSampler repeat_pick(repeat_w);
    while (month_events < target) {
      auto& d = drafts_[month_first_draft + repeat_pick.sample(rng_)];
      ++d.repeats;
      ++month_events;
    }
  }
}

// World-level adversarial stressors (synth/scenario.hpp), applied to the
// drafted population before materialization. Runs serially on the master
// stream: the mutated and injected drafts become part of the drafted
// world, so every downstream parallel phase keys its per-file substreams
// on the final draft indices and stays bit-identical across thread
// counts. Each stressor draws from rng_ only when its knob is on, and the
// whole pass is skipped when the profile is inactive — the seed world's
// RNG sequence is untouched.
//
// Application order is fixed (PPI shift, churn, bursts, storms) so a
// composed scenario is one deterministic world: churn variants inherit
// their base draft's PPI flag, and injected campaign/storm files are
// never churned or rotated.
void Generator::apply_scenario() {
  const ScenarioProfile& sc = profile_.scenario;
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  const std::size_t base_drafts = drafts_.size();

  // PPI-style distribution shift: from ppi_shift_month on, a slice of the
  // malicious-nature population joins the rotated downloader mix.
  if (sc.ppi_active()) {
    std::size_t shifted = 0;
    for (auto& d : drafts_) {
      if (d.nature != Nature::kMalicious || d.month < sc.ppi_shift_month)
        continue;
      if (!rng_.bernoulli(sc.ppi_shift_rate)) continue;
      d.ppi_shifted = true;
      d.primary_cat = ppi_rotate_cat(d.primary_cat);
      ++shifted;
    }
    LONGTAIL_METRIC_COUNT("synth.scenario.ppi_shifted_files", shifted);
  }

  // Polymorphic hash churn: a prevalent labeled dropper is re-hashed per
  // victim cohort. The base hash keeps one cohort (and the repeat traffic
  // already aimed at it); the remaining victims move to fresh-hash
  // variants the AV crowd has never processed (intended unknown), each at
  // most churn_cohort machines — below sigma, so the prevalence cap never
  // fires on them. Victim counts are split exactly, so raw download
  // volume is conserved while cap saturation falls.
  if (sc.churn_active()) {
    std::size_t variants = 0;
    for (std::size_t f = 0; f < base_drafts; ++f) {
      const bool eligible = drafts_[f].nature == Nature::kMalicious &&
                            drafts_[f].type == MalwareType::kDropper &&
                            drafts_[f].prevalence > sc.churn_cohort;
      if (!eligible || !rng_.bernoulli(sc.churn_rate)) continue;
      const FileDraft base = drafts_[f];
      drafts_[f].prevalence = sc.churn_cohort;
      std::uint32_t remaining = base.prevalence - sc.churn_cohort;
      while (remaining > 0) {
        const std::uint32_t take = std::min(remaining, sc.churn_cohort);
        remaining -= take;
        FileDraft v = base;
        v.intended = Verdict::kUnknown;
        v.prevalence = take;
        v.repeats = 0;
        v.first_time = std::min<Timestamp>(
            base.first_time +
                static_cast<Timestamp>(rng_.exponential(3.0 * 86'400.0)),
            period_end - 1);
        drafts_.push_back(v);
        ++variants;
      }
    }
    LONGTAIL_METRIC_COUNT("synth.scenario.churn_variants", variants);
  }

  // Campaign bursts: flash-crowd droppers landing on many machines inside
  // a narrow window. Injected as fresh unknown-intended drafts whose
  // window_s makes every download land within burst_window_s of first
  // appearance.
  if (sc.bursts_active()) {
    const auto n = profile_.scaled(sc.burst_files);
    const auto victims =
        static_cast<std::uint32_t>(profile_.scaled(sc.burst_machines));
    for (std::uint64_t i = 0; i < n; ++i) {
      FileDraft d;
      const auto m = static_cast<std::size_t>(
          rng_.uniform(model::kNumCollectionMonths));
      d.month = static_cast<std::uint8_t>(m);
      d.intended = Verdict::kUnknown;
      d.nature = Nature::kMalicious;
      d.type = MalwareType::kDropper;
      d.family = world_.family_ids[head_heavy(world_.family_ids.size(), 3.0)];
      for (int tries = 0; d.family == zbot_family_ && tries < 8; ++tries)
        d.family =
            world_.family_ids[head_heavy(world_.family_ids.size(), 3.0)];
      d.extractable = rng_.bernoulli(0.42);
      d.prevalence = victims;
      d.primary_cat = kCatBrowser;
      d.window_s = sc.burst_window_s;
      const auto month_begin =
          model::month_begin(static_cast<model::Month>(m));
      const auto month_len =
          model::month_end(static_cast<model::Month>(m)) - month_begin;
      const auto window = static_cast<Timestamp>(sc.burst_window_s);
      const auto span =
          month_len > window ? month_len - window : Timestamp{1};
      d.first_time = month_begin + static_cast<Timestamp>(rng_.uniform(
                                       static_cast<std::uint64_t>(span)));
      drafts_.push_back(d);
    }
    LONGTAIL_METRIC_COUNT("synth.scenario.burst_files", n);
  }

  // Benign update storms: a popular updater ships a release to its whole
  // install base within hours. Same flash-crowd mechanics, benign files
  // on plain machines via the OS-updater category.
  if (sc.storms_active()) {
    const auto n = profile_.scaled(sc.storm_files);
    const auto base = static_cast<std::uint32_t>(
        profile_.scaled(sc.storm_machines));
    for (std::uint64_t i = 0; i < n; ++i) {
      FileDraft d;
      const auto m = static_cast<std::size_t>(
          rng_.uniform(model::kNumCollectionMonths));
      d.month = static_cast<std::uint8_t>(m);
      d.intended = Verdict::kBenign;
      d.nature = Nature::kBenign;
      d.prevalence = base;
      d.primary_cat = kCatWindows;
      d.window_s = sc.storm_window_s;
      const auto month_begin =
          model::month_begin(static_cast<model::Month>(m));
      const auto month_len =
          model::month_end(static_cast<model::Month>(m)) - month_begin;
      const auto window = static_cast<Timestamp>(sc.storm_window_s);
      const auto span =
          month_len > window ? month_len - window : Timestamp{1};
      d.first_time = month_begin + static_cast<Timestamp>(rng_.uniform(
                                       static_cast<std::uint64_t>(span)));
      drafts_.push_back(d);
    }
    LONGTAIL_METRIC_COUNT("synth.scenario.storm_files", n);
  }

  LONGTAIL_METRIC_COUNT("synth.scenario.injected_files",
                        drafts_.size() - base_drafts);
}

DomainId Generator::pick_domain(const FileDraft& d, util::Rng& rng) const {
  struct RoleWeight {
    const std::vector<DomainId>* pool;
    double weight;
    double alpha;  // head-heaviness within the role
  };
  std::array<RoleWeight, 5> roles{};
  std::size_t n = 0;
  auto add = [&](const std::vector<DomainId>& pool, double wgt, double alpha) {
    if (!pool.empty()) roles[n++] = {&pool, wgt, alpha};
  };

  const auto& w = world_;
  if (d.intended == Verdict::kBenign || d.intended == Verdict::kLikelyBenign) {
    add(w.mixed_domains, 0.50, 2.5);
    add(w.vendor_domains, 0.38, 2.5);
    add(w.tail_domains, 0.12, 1.2);
  } else if (d.intended == Verdict::kUnknown) {
    if (d.nature == Nature::kBenign) {
      add(w.tail_domains, 0.50, 1.2);
      add(w.mixed_domains, 0.33, 2.5);
      add(w.vendor_domains, 0.12, 2.5);
      add(w.adware_domains, 0.05, 2.0);
    } else {
      add(w.tail_domains, 0.45, 1.2);
      add(w.mixed_domains, 0.25, 2.5);
      add(w.dedicated_domains, 0.20, 2.0);
      add(w.adware_domains, 0.06, 2.0);
      add(w.fakeav_domains, 0.04, 2.0);
    }
  } else {
    switch (d.type) {
      case MalwareType::kDropper:
        add(w.mixed_domains, 0.45, 2.5);
        add(w.dedicated_domains, 0.40, 2.0);
        add(w.tail_domains, 0.12, 1.2);
        add(w.adware_domains, 0.03, 2.0);
        break;
      case MalwareType::kPup:
        add(w.mixed_domains, 0.50, 2.5);
        add(w.dedicated_domains, 0.30, 2.0);
        add(w.tail_domains, 0.15, 1.2);
        add(w.adware_domains, 0.05, 2.0);
        break;
      case MalwareType::kAdware:
        add(w.adware_domains, 0.50, 2.0);
        add(w.mixed_domains, 0.25, 2.5);
        add(w.dedicated_domains, 0.15, 2.0);
        add(w.tail_domains, 0.10, 1.2);
        break;
      case MalwareType::kFakeAv:
        add(w.fakeav_domains, 0.75, 1.5);
        add(w.dedicated_domains, 0.10, 2.0);
        add(w.mixed_domains, 0.10, 2.5);
        add(w.tail_domains, 0.05, 1.2);
        break;
      case MalwareType::kTrojan:
      case MalwareType::kUndefined:
        add(w.dedicated_domains, 0.40, 2.0);
        add(w.mixed_domains, 0.32, 2.5);
        add(w.tail_domains, 0.23, 1.2);
        add(w.adware_domains, 0.05, 2.0);
        break;
      default:  // banker, bot, worm, spyware, ransomware
        add(w.dedicated_domains, 0.60, 1.6);
        add(w.tail_domains, 0.25, 1.2);
        add(w.mixed_domains, 0.15, 2.5);
        break;
    }
  }

  double total = 0;
  for (std::size_t i = 0; i < n; ++i) total += roles[i].weight;
  double r = rng.uniform01() * total;
  for (std::size_t i = 0; i < n; ++i) {
    r -= roles[i].weight;
    if (r < 0 || i == n - 1) {
      const auto& pool = *roles[i].pool;
      return pool[head_heavy(rng, pool.size(), roles[i].alpha)];
    }
  }
  return w.tail_domains.front();
}

UrlId Generator::url_on_domain(DomainId domain) {
  auto& urls = domain_urls_[domain.raw()];
  // File-hosting URLs are shared across files often enough that the URL
  // table ends up smaller than the file table, as in the paper.
  if (!urls.empty() && rng_.bernoulli(0.35))
    return urls[rng_.uniform(urls.size())];
  const UrlId id{static_cast<std::uint32_t>(world_.corpus.urls.size())};
  world_.corpus.urls.push_back(model::UrlMeta{
      domain, world_.corpus.domains[domain.raw()].alexa_rank});
  urls.push_back(id);
  return id;
}

MachineId Generator::pick_machine(MachinePool pool,
                                  const std::vector<MachineId>& used,
                                  Timestamp t, util::Rng& rng) const {
  const auto& sampler = pool == MachinePool::kHeavy
                            ? world_.machine_sampler_heavy
                            : pool == MachinePool::kRisky
                                  ? world_.machine_sampler_risky
                                  : world_.machine_sampler_plain;
  // Rejection-sample until the machine is in an active session at t; the
  // fallback after the try budget accepts a session mismatch rather than
  // looping forever.
  for (int attempt = 0; attempt < 40; ++attempt) {
    const MachineId m{static_cast<std::uint32_t>(sampler.sample(rng))};
    if (!machine_active_at(m, t)) continue;
    if (std::find(used.begin(), used.end(), m) == used.end()) return m;
  }
  return MachineId{static_cast<std::uint32_t>(sampler.sample(rng))};
}

ProcessId Generator::process_for(int cat, MachineId machine,
                                 util::Rng& rng) const {
  const auto& w = world_;
  const std::uint64_t mhash =
      util::mix64(machine.raw() * 0x9E3779B97F4A7C15ULL + 17);
  switch (cat) {
    case kCatBrowser: {
      const auto kind =
          static_cast<std::size_t>(w.machines[machine.raw()].browser);
      const auto& range = w.browser_procs[kind];
      return ProcessId{range.begin +
                       static_cast<std::uint32_t>(mhash % range.size())};
    }
    case kCatWindows: {
      const auto& range = w.windows_procs;
      return ProcessId{range.begin +
                       static_cast<std::uint32_t>(mhash % range.size())};
    }
    case kCatJava: {
      const auto& range = w.java_procs;
      return ProcessId{range.begin +
                       static_cast<std::uint32_t>(mhash % range.size())};
    }
    case kCatAcrobat: {
      const auto& range = w.acrobat_procs;
      return ProcessId{range.begin +
                       static_cast<std::uint32_t>(mhash % range.size())};
    }
    case kCatOther: {
      const auto& range = w.other_procs;
      return ProcessId{
          range.begin +
          static_cast<std::uint32_t>(head_heavy(rng, range.size(), 1.8))};
    }
    case kCatUnknownProc: {
      const auto& pool = w.unknown_procs;
      return pool[head_heavy(rng, pool.size(), 1.5)];
    }
    default: {  // malicious process of type (cat - kCatMalProcBase)
      const auto& pool = w.malproc_pool[static_cast<std::size_t>(
          cat - kCatMalProcBase)];
      if (pool.empty()) return w.unknown_procs.front();
      return pool[head_heavy(rng, pool.size(), 2.0)];
    }
  }
}

// Applies one staged event. Runs serially, in deterministic order: this
// is the only place the shared tables (raw_events_, file_events_, the
// URL table via url_on_domain, registry_) are written during event
// resolution.
void Generator::emit_plan(const EventPlan& p, bool track_registry) {
  const UrlId url = p.needs_url ? url_on_domain(p.domain) : p.url;
  raw_events_.push_back(model::DownloadEvent{FileId{p.file}, p.machine,
                                             p.process, url, p.time, true});
  file_events_[p.file].push_back(
      static_cast<std::uint32_t>(raw_events_.size() - 1));
  if (track_registry) {
    const auto& d = drafts_[p.file];
    if (d.nature == Nature::kMalicious)
      registry_[idx(d.type)].push_back({p.machine, p.time});
  }
}

// Phase 1 worker: resolve every event slot of a file that neither
// consumes demands nor is a labeled dropper. Pure function of
// (world, drafts, seed, f) — safe to run from any thread.
Generator::FileResolution Generator::resolve_independent_file(
    std::uint32_t f) const {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  const auto& d = drafts_[f];
  util::Rng rng = substream(kIndependentSalt, f);
  FileResolution res;
  std::vector<MachineId> used;
  used.reserve(d.prevalence);
  for (std::uint32_t i = 0; i < d.prevalence; ++i) {
    int cat = d.primary_cat;
    if (i != 0 && !rng.bernoulli(0.85)) {
      cat = static_cast<int>(cat_samplers_[class_key(d)].sample(rng));
      if (d.ppi_shifted) cat = ppi_rotate_cat(cat);
    }
    // Scenario flash crowds land every download inside the file's burst
    // window; the calibrated world spreads them over weeks.
    Timestamp t = i == 0  ? d.first_time
                  : d.window_s > 0
                      ? d.first_time + static_cast<Timestamp>(
                                           rng.uniform01() * d.window_s)
                      : d.first_time + static_cast<Timestamp>(
                                           rng.exponential(6.0 * 86'400.0));
    t = std::min(t, period_end - 1);

    if (cat >= kCatMalProcBase && cat < kCatUnknownProc) {
      res.pending.push_back(
          {f, static_cast<MalwareType>(cat - kCatMalProcBase)});
      continue;
    }

    // Casual machines download popular files; the long tail of
    // prevalence-1 unknown files lands on heavy downloaders. This is
    // what keeps "machines that saw an unknown file" near 69% (§IV-A)
    // while total machine coverage stays at the paper's events/machine.
    // Malicious events lean on risky machines but keep substantial
    // overlap with the plain population: the paper's Fig. 5 control
    // shows even benign-only machines pick up malware at a steady
    // background rate.
    const MachinePool pool =
        d.intended == Verdict::kUnknown
            ? MachinePool::kHeavy
            : (d.nature == Nature::kMalicious && rng.bernoulli(0.6)
                   ? MachinePool::kRisky
                   : MachinePool::kPlain);
    const MachineId machine = pick_machine(pool, used, t, rng);
    used.push_back(machine);

    EventPlan ev;
    ev.file = f;
    ev.machine = machine;
    ev.time = t;
    if (rng.bernoulli(0.9)) {
      ev.url = d.primary_url;
    } else {
      ev.needs_url = true;
      ev.domain = pick_domain(d, rng);
    }
    ev.process = process_for(cat, machine, rng);
    res.events.push_back(ev);

    // Labeled chain initiators prime their machine for follow-ups.
    // Phase 1 holds the adware/PUP initiators (droppers are phase 2).
    if (d.intended == Verdict::kMalicious && is_chain_initiator(d.type) &&
        rng.bernoulli(0.9))
      res.demands.push_back(
          {machine, t, d.type, chains::QueueKind::kAdwarePup});
  }
  return res;
}

// Chain-file sweep: draws everything that does not depend on the matched
// machine (category, base time, demand appetite, queue preference, URL
// choice) so the matching engine sees all demands and consumer slots at
// once.
std::vector<Generator::SlotPlan> Generator::plan_chain_file(
    std::uint32_t f) const {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  const auto& d = drafts_[f];
  util::Rng rng = substream(kChainPlanSalt, f);
  std::vector<SlotPlan> plan(d.prevalence);
  for (std::uint32_t i = 0; i < d.prevalence; ++i) {
    SlotPlan& s = plan[i];
    s.cat = d.primary_cat;
    if (i != 0 && !rng.bernoulli(0.85)) {
      s.cat = static_cast<int>(cat_samplers_[class_key(d)].sample(rng));
      if (d.ppi_shifted) s.cat = ppi_rotate_cat(s.cat);
    }
    const Timestamp t =
        i == 0  ? d.first_time
        : d.window_s > 0
            ? d.first_time +
                  static_cast<Timestamp>(rng.uniform01() * d.window_s)
            : d.first_time + static_cast<Timestamp>(
                                 rng.exponential(6.0 * 86'400.0));
    s.time = std::min(t, period_end - 1);
    if (s.cat >= kCatMalProcBase && s.cat < kCatUnknownProc) {
      s.is_pending = true;
      continue;
    }
    s.wants_demand = rng.bernoulli(0.9);
    // Queue preference mirrors the serial policy: droppers mostly follow
    // adware/PUP chains (bundled installers drop the next stage) but
    // sometimes re-drop on dropper machines; other malware splits
    // between the queues.
    const bool prefer_dropper = d.type == MalwareType::kDropper
                                    ? rng.bernoulli(0.35)
                                    : rng.bernoulli(0.5);
    s.preferred = prefer_dropper ? chains::QueueKind::kDropper
                                 : chains::QueueKind::kAdwarePup;
    if (!rng.bernoulli(0.9)) {
      s.primary_url = false;
      s.domain = pick_domain(d, rng);
    }
    s.slot_seed = rng.next_u64();
  }
  return plan;
}

// Chain-file fill: applies the match assignment. Consumer slots that won
// a demand inherit its machine and a Fig. 5 transition delta; everything
// else picks an independent machine. The demand machines are committed
// to `used` up front so a fresh pick can never collide with a machine
// the matching engine already granted this file.
Generator::FileResolution Generator::fill_chain_file(
    std::uint32_t f, const std::vector<SlotPlan>& plan,
    std::span<const chains::Demand> demands,
    std::span<const std::uint32_t> assignment) const {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  const auto& d = drafts_[f];
  util::Rng rng = substream(kChainFillSalt, f);
  FileResolution res;
  std::vector<MachineId> used;
  used.reserve(plan.size());

  std::size_t ci = 0;
  for (const SlotPlan& s : plan) {
    if (s.is_pending || !s.wants_demand) continue;
    const std::uint32_t di = assignment[ci++];
    if (di != chains::kUnmatched) used.push_back(demands[di].machine);
  }

  ci = 0;
  for (const SlotPlan& s : plan) {
    if (s.is_pending) {
      res.pending.push_back(
          {f, static_cast<MalwareType>(s.cat - kCatMalProcBase)});
      continue;
    }
    std::uint32_t di = chains::kUnmatched;
    if (s.wants_demand) di = assignment[ci++];

    MachineId machine;
    Timestamp t = s.time;
    if (di != chains::kUnmatched) {
      const chains::Demand& demand = demands[di];
      machine = demand.machine;
      util::Rng delta_rng(s.slot_seed);
      t = std::min(demand.time +
                       chains::transition_delta(demand.initiator,
                                                profile_.transitions,
                                                delta_rng),
                   period_end - 1);
    } else {
      const MachinePool pool =
          d.intended == Verdict::kUnknown
              ? MachinePool::kHeavy
              : (d.nature == Nature::kMalicious && rng.bernoulli(0.6)
                     ? MachinePool::kRisky
                     : MachinePool::kPlain);
      machine = pick_machine(pool, used, t, rng);
      used.push_back(machine);
    }

    EventPlan ev;
    ev.file = f;
    ev.machine = machine;
    ev.time = t;
    if (s.primary_url) {
      ev.url = d.primary_url;
    } else {
      ev.needs_url = true;
      ev.domain = s.domain;
    }
    ev.process = process_for(s.cat, machine, rng);
    res.events.push_back(ev);

    // Droppers produce dropper demands for the phase-3 round.
    if (d.intended == Verdict::kMalicious && is_chain_initiator(d.type) &&
        rng.bernoulli(0.9))
      res.demands.push_back({machine, t, d.type, chains::QueueKind::kDropper});
  }
  return res;
}

void Generator::resolve_events() {
  file_events_.resize(drafts_.size());

  // Classify once. Phase 1: everything that is not labeled other-malware
  // — these files build the adware/PUP demand queue. Phase 2: labeled
  // droppers (consume adware/PUP demands, produce dropper demands).
  // Phase 3: remaining labeled other-malware consumes what is left.
  std::vector<std::uint32_t> phase1, phase2, phase3;
  phase1.reserve(drafts_.size());
  for (std::uint32_t f = 0; f < drafts_.size(); ++f) {
    const auto& d = drafts_[f];
    const bool labeled_malware = d.intended == Verdict::kMalicious;
    if (labeled_malware && d.type == MalwareType::kDropper) {
      phase2.push_back(f);
    } else if (labeled_malware && is_other_malware_type(d.type)) {
      phase3.push_back(f);
    } else {
      phase1.push_back(f);
    }
  }

  // Live demand pool: adware/PUP demands after phase 1, leftovers plus
  // dropper demands after round A.
  std::vector<chains::Demand> demands;
  {
    LONGTAIL_TRACE_SPAN("synth.resolve_events.independent");
    auto resolved = util::parallel_map(
        phase1.size(),
        [&](std::size_t i) { return resolve_independent_file(phase1[i]); },
        /*grain=*/64);
    for (const FileResolution& res : resolved) {
      for (const EventPlan& ev : res.events)
        emit_plan(ev, /*track_registry=*/true);
      demands.insert(demands.end(), res.demands.begin(), res.demands.end());
      pending_.insert(pending_.end(), res.pending.begin(), res.pending.end());
    }
  }

  {
    LONGTAIL_TRACE_SPAN_DETAIL(
        "synth.resolve_events.demand_queues",
        "files=" + std::to_string(phase2.size() + phase3.size()));
    LONGTAIL_METRIC_COUNT("synth.chain.files_resolved",
                          phase2.size() + phase3.size());
    std::uint64_t produced = demands.size();
    std::uint64_t consumed = 0;

    // One matching round: sweep the files' slot plans in parallel, hand
    // the demand pool to the matching engine, fill in parallel, then
    // merge in file-id order. Returns the demands the next round may
    // still consume (unconsumed survivors); new demands produced by this
    // round's files accumulate in `next_demands`.
    auto run_round = [&](const std::vector<std::uint32_t>& files,
                         std::uint64_t match_salt,
                         std::vector<chains::Demand>& next_demands) {
      auto plans = util::parallel_map(
          files.size(),
          [&](std::size_t i) { return plan_chain_file(files[i]); },
          /*grain=*/128);

      std::vector<chains::Consumer> consumers;
      std::vector<std::size_t> offsets(files.size() + 1, 0);
      for (std::size_t i = 0; i < files.size(); ++i) {
        offsets[i] = consumers.size();
        for (const SlotPlan& s : plans[i])
          if (!s.is_pending && s.wants_demand)
            consumers.push_back({files[i], s.preferred});
      }
      offsets[files.size()] = consumers.size();

      const auto match =
          chains::match_demands(profile_.seed ^ match_salt, demands,
                                consumers, chains::kDefaultPartitions);
      consumed += match.stats.matched;

      const std::span<const std::uint32_t> assignment(
          match.demand_for_consumer);
      auto filled = util::parallel_map(
          files.size(),
          [&](std::size_t i) {
            return fill_chain_file(
                files[i], plans[i], demands,
                assignment.subspan(offsets[i], offsets[i + 1] - offsets[i]));
          },
          /*grain=*/128);
      for (const FileResolution& res : filled) {
        for (const EventPlan& ev : res.events)
          emit_plan(ev, /*track_registry=*/true);
        next_demands.insert(next_demands.end(), res.demands.begin(),
                            res.demands.end());
        pending_.insert(pending_.end(), res.pending.begin(),
                        res.pending.end());
      }

      std::vector<chains::Demand> survivors;
      survivors.reserve(match.leftover_demands.size());
      for (const std::uint32_t di : match.leftover_demands)
        survivors.push_back(demands[di]);
      demands = std::move(survivors);
    };

    std::vector<chains::Demand> dropper_demands;
    run_round(phase2, kMatchRoundA, dropper_demands);
    produced += dropper_demands.size();
    demands.insert(demands.end(), dropper_demands.begin(),
                   dropper_demands.end());
    std::vector<chains::Demand> unused_demands;
    run_round(phase3, kMatchRoundB, unused_demands);

    LONGTAIL_METRIC_COUNT("synth.chain.demands_produced", produced);
    LONGTAIL_METRIC_COUNT("synth.chain.demands_consumed", consumed);
    LONGTAIL_METRIC_COUNT("synth.chain.leftover_demands", demands.size());
  }

  {
    LONGTAIL_TRACE_SPAN("synth.resolve_events.pending");
    LONGTAIL_METRIC_COUNT("synth.pending_resolved", pending_.size());
    resolve_pending();
  }

  {
    LONGTAIL_TRACE_SPAN("synth.resolve_events.repeats");
    resolve_repeats();
  }
}

void Generator::resolve_pending() {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];

  // Workers sample against the registry as frozen at this point (all
  // three event phases have merged); emissions below append to it only
  // after every worker is done.
  auto resolved = util::parallel_map(
      pending_.size(),
      [&](std::size_t i) {
        const auto& p = pending_[i];
        const auto& d = drafts_[p.file];
        util::Rng rng = substream(kPendingSalt, i);
        const auto& reg = registry_[idx(p.proc_type)];
        EventPlan ev;
        ev.file = p.file;
        if (reg.empty()) {
          // No machine is infected with this process type (possible at
          // tiny scales): fall back to an independent risky machine.
          static const std::vector<MachineId> kNoUsed;
          ev.time = d.first_time;
          ev.machine =
              pick_machine(MachinePool::kRisky, kNoUsed, ev.time, rng);
        } else {
          const auto& rec = reg[rng.uniform(reg.size())];
          ev.machine = rec.machine;
          ev.time = std::min(
              rec.time + chains::transition_delta(p.proc_type,
                                                  profile_.transitions, rng),
              period_end - 1);
        }
        if (rng.bernoulli(0.9)) {
          ev.url = d.primary_url;
        } else {
          ev.needs_url = true;
          ev.domain = pick_domain(d, rng);
        }
        const int cat = kCatMalProcBase + static_cast<int>(idx(p.proc_type));
        ev.process = process_for(cat, ev.machine, rng);
        return ev;
      },
      /*grain=*/256);
  for (const EventPlan& ev : resolved) emit_plan(ev, /*track_registry=*/true);
  pending_.clear();
}

// Repeat downloads: same machine re-fetches a file it already has. Each
// file's repeats depend only on its own resolved events, so files run in
// parallel; a repeat may clone an earlier repeat of the same file.
void Generator::resolve_repeats() {
  const Timestamp period_end = model::kMonthStart[model::kNumCalendarMonths];
  auto repeats = util::parallel_map(
      drafts_.size(),
      [&](std::size_t f) {
        std::vector<EventPlan> out;
        const auto& d = drafts_[f];
        const auto& base = file_events_[f];
        if (d.repeats == 0 || base.empty()) return out;
        util::Rng rng = substream(kRepeatSalt, f);
        out.reserve(d.repeats);
        for (std::uint32_t r = 0; r < d.repeats; ++r) {
          const std::size_t pick = rng.uniform(base.size() + out.size());
          EventPlan ev;
          ev.file = static_cast<std::uint32_t>(f);
          Timestamp src_time;
          if (pick < base.size()) {
            const auto& src = raw_events_[base[pick]];
            ev.machine = src.machine;
            ev.process = src.process;
            ev.url = src.url;
            src_time = src.time;
          } else {
            const EventPlan& src = out[pick - base.size()];
            ev.machine = src.machine;
            ev.process = src.process;
            ev.url = src.url;
            src_time = src.time;
          }
          ev.time =
              std::min(src_time + static_cast<Timestamp>(
                                      3'600 + rng.uniform(71 * 3'600)),
                       period_end - 1);
          out.push_back(ev);
        }
        return out;
      },
      /*grain=*/128);
  for (const auto& out : repeats)
    for (const EventPlan& ev : out) emit_plan(ev, /*track_registry=*/false);
}

void Generator::add_decoys() {
  if (raw_events_.empty()) return;
  const std::size_t n_events = raw_events_.size();

  // Downloads that were never executed: observed by the agent, filtered by
  // the reporting rules.
  const auto n_nonexec = n_events / 50;
  for (std::size_t i = 0; i < n_nonexec; ++i) {
    auto ev = raw_events_[rng_.uniform(n_events)];
    ev.executed = false;
    ev.time = std::min<Timestamp>(
        ev.time + static_cast<Timestamp>(rng_.uniform(86'400)),
        model::kMonthStart[model::kNumCalendarMonths] - 1);
    raw_events_.push_back(ev);
  }

  // Software updates from whitelisted vendor CDNs: suppressed at the
  // collection server.
  const auto n_update = n_events / 100;
  for (std::size_t i = 0; i < n_update; ++i) {
    auto ev = raw_events_[rng_.uniform(n_events)];
    const DomainId dom =
        world_.update_domains[rng_.uniform(world_.update_domains.size())];
    ev.url = url_on_domain(dom);
    raw_events_.push_back(ev);
  }
}

void Generator::finalize_corpus() {
  std::sort(raw_events_.begin(), raw_events_.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  telemetry::StreamingConfig cfg;
  cfg.policy.sigma = profile_.sigma;
  cfg.policy.reorder_horizon_s = profile_.faults.reorder_horizon_s();
  for (DomainId dom : world_.update_domains)
    cfg.policy.whitelisted_domains.insert(dom);
  cfg.num_files = world_.corpus.files.size();
  const bool faulted = profile_.faults.transport_active();
  cfg.trusted = !faulted;

  // One collection pass in one window over the whole period
  // (window_s = 0), whose events become the corpus. The fault-free stream
  // takes the trusted path; a faulted one crosses FaultyTransport and is
  // hardened by dedup → quarantine → reorder before the §II-A rules.
  telemetry::StreamingCollectionServer server(std::move(cfg),
                                              world_.corpus.urls);
  std::vector<telemetry::EventWindow> windows;
  if (faulted) {
    telemetry::FaultyTransport transport(profile_.faults, profile_.seed);
    const auto delivered = transport.deliver(raw_events_);
    transport_stats_ = transport.stats();
    server.ingest(delivered, windows);
    server.finish(windows);
  } else {
    windows = telemetry::collect_in_order(server, raw_events_);
  }
  world_.corpus.events = std::move(windows.front().events);

  world_.corpus.machine_count = world_.num_machines();
  collection_stats_ = server.stats();
  LONGTAIL_METRIC_COUNT("telemetry.sigma.saturated_files",
                        server.sigma_saturated_files());
  LONGTAIL_METRIC_COUNT("telemetry.sigma.tracked_files",
                        server.sigma_tracked_files());
}

model::FileMeta Generator::draft_file_meta(std::uint32_t file_index,
                                           const FileDraft& d) const {
  util::Rng rng = substream(0x4D455441ULL /* "META" */, file_index);
  model::FileMeta meta;
  meta.sha = util::digest_of(/*kind=*/1, file_index);

  const bool via_browser = d.primary_cat == kCatBrowser;
  double signed_rate;
  const auto& sg = profile_.signing;
  auto split_rate = [](double overall, double share, double browser_rate,
                       bool browser) {
    if (browser) return browser_rate;
    if (share >= 0.999) return overall;
    const double rest = (overall - share * browser_rate) / (1.0 - share);
    return std::clamp(rest, 0.0, 1.0);
  };
  switch (d.intended) {
    case Verdict::kBenign:
    case Verdict::kLikelyBenign:
      signed_rate = split_rate(sg.benign_signed, sg.benign_browser_share,
                               sg.benign_browser_signed, via_browser);
      break;
    case Verdict::kUnknown:
      signed_rate = split_rate(sg.unknown_signed, sg.unknown_browser_share,
                               sg.unknown_browser_signed, via_browser);
      break;
    default:
      signed_rate = split_rate(sg.signed_pct[idx(d.type)],
                               sg.browser_share[idx(d.type)],
                               sg.browser_signed_pct[idx(d.type)], via_browser);
      break;
  }
  meta.is_signed = rng.bernoulli(signed_rate);
  if (meta.is_signed) {
    if (d.nature == Nature::kBenign) {
      meta.signer = world_.benign_signer_pool[head_heavy(
          rng, benign_signer_prefix_, 1.0)];
    } else {
      // Malicious signing certificates churn: each month the active window
      // slides a third of its width through the type's pool (new certs are
      // acquired, burned ones abandoned). Benign signers are long-lived.
      const auto& pool = world_.type_signer_pool[idx(d.type)];
      const std::size_t prefix = type_signer_prefix_[idx(d.type)];
      const std::size_t offset =
          (d.month * std::max<std::size_t>(prefix / 3, 1)) % pool.size();
      meta.signer = pool[(offset + head_heavy(rng, prefix, 1.0)) % pool.size()];
    }
    meta.ca = world_.signer_ca[meta.signer.raw()];
  }

  // Scenario: stolen signing certificate (§VII). Inside the compromise
  // window the adversary deliberately signs malicious files with one of
  // the most popular trusted benign signers; from the revocation month on
  // the certificate is dead and unused. The draws are gated on the knob,
  // so an inactive scenario leaves this substream's sequence untouched.
  const auto& sc = profile_.scenario;
  if (sc.signer_active() && d.nature == Nature::kMalicious &&
      d.month >= sc.signer_compromise_month &&
      d.month < sc.signer_revoke_month &&
      !world_.benign_signer_pool.empty() &&
      rng.bernoulli(sc.stolen_signer_rate)) {
    const auto n_stolen = std::min<std::size_t>(
        sc.stolen_signer_count, world_.benign_signer_pool.size());
    meta.is_signed = true;
    meta.signer = world_.benign_signer_pool[rng.uniform(n_stolen)];
    meta.ca = world_.signer_ca[meta.signer.raw()];
  }

  const auto& pk = profile_.packers;
  const double packed_rate = d.intended == Verdict::kUnknown
                                 ? pk.unknown_packed
                                 : (d.nature == Nature::kBenign
                                        ? pk.benign_packed
                                        : pk.malicious_packed);
  meta.is_packed = rng.bernoulli(packed_rate);
  if (meta.is_packed) {
    const auto& pool = d.nature == Nature::kBenign
                           ? world_.benign_packer_pool
                           : world_.malicious_packer_pool;
    meta.packer = pool[head_heavy(rng, pool.size(), 1.6)];
  }

  const double mu = d.nature == Nature::kBenign ? 14.3 : 13.2;  // ~e^14.3=1.6MB
  meta.size = static_cast<std::uint64_t>(std::exp(rng.normal(mu, 1.1)));
  return meta;
}

void Generator::materialize_files() {
  // File metadata draws from per-file substreams, so the parallel phase is
  // reproducible under any thread count; URL/domain assignment shares the
  // world tables and the master stream, so it stays serial in file order.
  auto metas = util::parallel_map(
      drafts_.size(),
      [&](std::size_t f) {
        return draft_file_meta(static_cast<std::uint32_t>(f), drafts_[f]);
      },
      /*grain=*/512);
  world_.corpus.files.reserve(drafts_.size());
  for (std::uint32_t f = 0; f < drafts_.size(); ++f) {
    auto& d = drafts_[f];
    world_.corpus.files.push_back(metas[f]);
    world_.truth.file_nature.push_back(d.nature);
    world_.truth.file_type.push_back(d.type);
    world_.truth.file_family.push_back(d.family);
    world_.truth.file_family_extractable.push_back(d.extractable);
    world_.truth.file_intended.push_back(d.intended);
    d.primary_url = url_on_domain(pick_domain(d, rng_));
  }
}

Generator::EvidenceDraft Generator::draft_file_evidence(
    std::uint32_t file_index, const FileDraft& d) const {
  EvidenceDraft out;
  util::Rng rng = substream(0x45564944ULL /* "EVID" */, file_index);
  // A per-file AV-ecosystem simulator seeded from the same substream keeps
  // every engine's behaviour a pure function of (master seed, file index).
  groundtruth::AvSimulator avsim(avsim_.config(), rng.next_u64());
  switch (d.intended) {
    case Verdict::kBenign:
      if (rng.bernoulli(profile_.benign_whitelist_share)) {
        out.kind = EvidenceDraft::Kind::kWhitelist;
      } else {
        out.kind = EvidenceDraft::Kind::kReport;
        out.report = avsim.clean_report(
            d.first_time, 20 + static_cast<std::int64_t>(rng.uniform(680)));
      }
      break;
    case Verdict::kLikelyBenign:
      out.kind = EvidenceDraft::Kind::kReport;
      out.report = avsim.clean_report(
          d.first_time, static_cast<std::int64_t>(rng.uniform(14)));
      break;
    case Verdict::kMalicious: {
      const std::string_view family =
          d.family == TruthTable::kNoFamily
              ? std::string_view{}
              : world_.corpus.family_names.at(d.family);
      const double boost =
          std::min(1.0, 0.25 + static_cast<double>(std::min(
                                   d.prevalence, 20u)) /
                             40.0 +
                            rng.uniform01() * 0.4);
      out.kind = EvidenceDraft::Kind::kReport;
      out.report = avsim.malicious_report(d.type, family, d.extractable,
                                          d.first_time, boost);
      break;
    }
    case Verdict::kLikelyMalicious: {
      const std::string_view family =
          d.family == TruthTable::kNoFamily
              ? std::string_view{}
              : world_.corpus.family_names.at(d.family);
      out.kind = EvidenceDraft::Kind::kReport;
      out.report = avsim.likely_malicious_report(d.type, family, d.first_time);
      break;
    }
    case Verdict::kUnknown:
      break;  // no evidence, by definition
  }
  // Ground-truth degradation (FaultProfile): the VT feed loses some
  // submissions entirely and delivers engine signatures late. Drawn from a
  // dedicated substream so the fault-free evidence above is untouched —
  // with faults off this block never constructs an RNG.
  if (profile_.faults.labels_active() &&
      out.kind == EvidenceDraft::Kind::kReport) {
    util::Rng frng = substream(0x4C41424CULL /* "LABL" */, file_index);
    if (frng.bernoulli(profile_.faults.vt_loss_rate)) {
      out.kind = EvidenceDraft::Kind::kNone;  // never (successfully) scanned
      out.report = {};
    } else if (profile_.faults.label_delay_mean_days > 0.0) {
      for (auto& det : out.report.detections) {
        det.signature_time += static_cast<Timestamp>(
            frng.exponential(profile_.faults.label_delay_mean_days *
                             model::kSecondsPerDay));
        out.report.last_scan =
            std::max(out.report.last_scan, det.signature_time);
      }
    }
  }
  return out;
}

void Generator::build_file_evidence() {
  world_.vt.set_file_count(world_.corpus.files.size());
  auto evidence = util::parallel_map(
      drafts_.size(),
      [&](std::size_t f) {
        return draft_file_evidence(static_cast<std::uint32_t>(f), drafts_[f]);
      },
      /*grain=*/256);
  for (std::uint32_t f = 0; f < drafts_.size(); ++f) {
    const FileId id{f};
    switch (evidence[f].kind) {
      case EvidenceDraft::Kind::kWhitelist:
        world_.whitelist.add(id);
        break;
      case EvidenceDraft::Kind::kReport:
        world_.vt.put(id, std::move(evidence[f].report));
        break;
      case EvidenceDraft::Kind::kNone:
        break;
    }
  }
}

void Generator::compute_signer_prefixes() {
  const double monthly_files =
      static_cast<double>(profile_.total_files) * profile_.scale /
      static_cast<double>(model::kNumCollectionMonths);
  // Only files with the full "benign"/"malicious" verdict reach the rule
  // learner, so the active-prefix sizing must use the labeled fractions
  // (2.3% / 9.9%), and every active signer should average >= ~6 labeled
  // files per month so a month with zero sightings is a sub-percent event.
  const double benign_frac = 0.023;
  const double benign_monthly_signed =
      monthly_files * benign_frac * profile_.signing.benign_signed;
  benign_signer_prefix_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(benign_monthly_signed / 6.0), 10,
      world_.benign_signer_pool.size());
  const double mal_frac = 0.099;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
    const double monthly_signed = monthly_files * mal_frac *
                                  profile_.malware_type_pct[t] *
                                  profile_.signing.signed_pct[t];
    // The active window must stay at a third of the pool so the monthly
    // churn rotation actually replaces signers.
    const std::size_t pool = world_.type_signer_pool[t].size();
    const std::size_t hi = std::max<std::size_t>(2, pool / 3);
    type_signer_prefix_[t] = std::clamp<std::size_t>(
        static_cast<std::size_t>(monthly_signed / 6.0),
        std::min<std::size_t>(2, hi), hi);
  }
}

Dataset Generator::run() {
  LONGTAIL_TRACE_SPAN("synth.generate");
  {
    LONGTAIL_TRACE_SPAN("synth.calibrate");
    build_cat_samplers();
    compute_signer_prefixes();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.draft_files");
    draft_files();
    LONGTAIL_METRIC_COUNT("synth.files_drafted", drafts_.size());
  }
  if (profile_.scenario.active()) {
    LONGTAIL_TRACE_SPAN("synth.apply_scenario");
    apply_scenario();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.materialize_files");
    materialize_files();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.resolve_events");
    resolve_events();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.add_decoys");
    add_decoys();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.finalize_corpus");
    finalize_corpus();
  }
  {
    LONGTAIL_TRACE_SPAN("synth.build_file_evidence");
    build_file_evidence();
  }
  LONGTAIL_METRIC_COUNT("synth.events_raw", raw_events_.size());
  LONGTAIL_METRIC_COUNT("synth.events_accepted", world_.corpus.events.size());

  Dataset out;
  out.corpus = std::move(world_.corpus);
  out.truth = std::move(world_.truth);
  out.whitelist = std::move(world_.whitelist);
  out.vt = std::move(world_.vt);
  out.collection_stats = collection_stats_;
  out.transport_stats = transport_stats_;
  out.profile = profile_;
  return out;
}

}  // namespace

Dataset generate_dataset(const CalibrationProfile& profile) {
  Generator generator(profile);
  return generator.run();
}

}  // namespace longtail::synth

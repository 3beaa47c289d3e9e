// Calibration profile for the synthetic telemetry generator.
//
// The paper's dataset is proprietary; per DESIGN.md we substitute a
// generated corpus whose *published marginals* match the paper. Every
// constant in this file is transcribed from the paper's tables:
//
//   * Table I    — monthly machines/events/processes/files/URLs and
//                  per-month verdict fractions;
//   * Table II   — behaviour-type mix of malicious files;
//   * Table VI   — signing rates per file type (overall and from-browser);
//   * Table VII  — signer-pool sizes per type and overlap with benign;
//   * Table X    — download behaviour of benign process categories;
//   * Table XI   — per-browser machine shares and infection rates;
//   * Table XII  — download behaviour of malicious process types;
//   * §IV-C      — packer counts and packing rates;
//   * Fig. 2/5   — prevalence long-tail and infection-transition deltas.
//
// The generator samples from these distributions; the analysis modules
// *recompute* every statistic from the raw events and never read this
// profile, so the pipeline is exercised end-to-end.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "model/labels.hpp"
#include "model/time.hpp"
#include "synth/scenario.hpp"
#include "telemetry/faults.hpp"

namespace longtail::synth {

using TypePct = std::array<double, model::kNumMalwareTypes>;

// One row of Table I.
struct MonthCalibration {
  std::uint64_t machines = 0;
  std::uint64_t events = 0;
  std::uint64_t processes = 0;
  std::uint64_t files = 0;
  std::uint64_t urls = 0;
  // File verdict fractions for files first observed this month (Table I,
  // "Downloaded Files" columns). Remainder is unknown.
  double file_benign = 0, file_likely_benign = 0;
  double file_malicious = 0, file_likely_malicious = 0;
};

// One row of Table X (benign process categories).
struct ProcCategoryCalibration {
  model::ProcessCategory category{};
  std::uint32_t versions = 0;  // distinct process hashes
  std::uint64_t machines = 0;
  std::uint64_t unknown_files = 0;
  std::uint64_t benign_files = 0;
  std::uint64_t malicious_files = 0;
  TypePct malicious_type_pct{};  // of the malicious downloads
};

// One row of Table XII (malicious process types).
struct MalProcCalibration {
  model::MalwareType type{};
  std::uint32_t processes = 0;
  std::uint64_t machines = 0;
  std::uint64_t unknown_files = 0;
  std::uint64_t benign_files = 0;
  std::uint64_t malicious_files = 0;
  TypePct malicious_type_pct{};
};

// One row of Table XI.
struct BrowserCalibration {
  model::BrowserKind kind{};
  std::uint32_t versions = 0;
  std::uint64_t machines = 0;
  double infection_rate = 0;  // drives per-browser machine risk
};

// Table VI: signing rates.
struct SigningCalibration {
  TypePct signed_pct{};           // % of files of this type that are signed
  TypePct browser_share{};        // fraction downloaded via browsers
  TypePct browser_signed_pct{};   // % signed among the browser-downloaded
  double benign_signed = 0, benign_browser_share = 0, benign_browser_signed = 0;
  double unknown_signed = 0, unknown_browser_share = 0,
         unknown_browser_signed = 0;
};

// Table VII: signer-pool structure.
struct SignerCalibration {
  std::array<std::uint32_t, model::kNumMalwareTypes> per_type{};
  std::array<std::uint32_t, model::kNumMalwareTypes> common_with_benign{};
  std::uint32_t benign = 0;
};

// §IV-C: packers.
struct PackerCalibration {
  std::uint32_t total_packers = 69;
  std::uint32_t shared_packers = 35;   // used by both benign and malicious
  std::uint32_t benign_only = 17;
  std::uint32_t malicious_only = 17;
  double benign_packed = 0.54;
  double malicious_packed = 0.58;
  double unknown_packed = 0.50;
};

// Per-verdict-class prevalence long tail (Fig. 2): bounded Zipf.
struct PrevalenceCalibration {
  double unknown_s = 4.2;
  double benign_s = 1.9;
  double malicious_s = 2.05;
  std::uint32_t max_prevalence = 150;  // raw, before the sigma cap
};

// Fig. 5: time from an initiator infection to follow-up malware, keyed by
// the initiating process's type. day0 mass + exponential tail.
struct TransitionCalibration {
  double dropper_day0 = 0.72, dropper_mean_days = 1.6;
  double adware_day0 = 0.40, adware_mean_days = 9.0;
  double pup_day0 = 0.43, pup_mean_days = 7.5;
  double default_day0 = 0.55, default_mean_days = 4.0;
};

// Hidden nature of files the labeler will end up calling unknown. The
// paper cannot know this; we choose a mixture that is consistent with the
// paper's measured properties of unknown files (signing rate 38.4%,
// domain profile, and the rule-expansion outcome of Table XVII where most
// matched unknowns receive a malicious label).
struct UnknownNatureCalibration {
  double benign_fraction = 0.40;
  // Type mix of the malicious-natured unknowns: skewed to PUP/adware/
  // undefined (low-prevalence grayware the AV crowd never processed).
  TypePct malicious_type_pct{};
};

struct ProcessLabelCalibration {
  // Table I, "Download Processes" overall row.
  double benign = 0.076, likely_benign = 0.066;
  double malicious = 0.185, likely_malicious = 0.031;
};

struct CalibrationProfile {
  // Linear scale factor applied to all counts (1.0 = paper scale).
  double scale = 0.10;
  std::uint64_t seed = 20140101;

  std::uint64_t total_machines = 1'139'183;
  std::uint64_t total_files = 1'791'803;
  std::uint64_t total_events = 3'073'863;
  std::uint64_t total_urls = 1'629'336;
  std::uint64_t total_domains = 96'862;
  std::uint64_t total_processes = 141'229;
  std::uint64_t total_families = 363;

  std::uint32_t sigma = 20;  // collection-server prevalence cap

  // Fault model for the agent→server transport and the VT evidence feed
  // (telemetry/faults.hpp). All-zero by default: the generator then takes
  // the exact seed code path and output is byte-identical to a
  // fault-unaware build. `paper_calibration` never sets this; it comes
  // from LONGTAIL_FAULTS (bench/table drivers) or from test code.
  telemetry::FaultProfile faults;

  // Adversarial world-level stressors (synth/scenario.hpp). Inactive by
  // default: the generator then takes the exact seed code path and output
  // is byte-identical to a scenario-unaware build. `paper_calibration`
  // never sets this; it comes from LONGTAIL_SCENARIO (bench/table
  // drivers) or from test code.
  ScenarioProfile scenario;

  std::array<MonthCalibration, model::kNumCollectionMonths> months{};
  TypePct malware_type_pct{};  // Table II
  std::vector<ProcCategoryCalibration> benign_procs;
  std::vector<MalProcCalibration> mal_procs;
  std::array<BrowserCalibration, model::kNumBrowserKinds> browsers{};
  SigningCalibration signing{};
  SignerCalibration signers{};
  PackerCalibration packers{};
  PrevalenceCalibration prevalence{};
  TransitionCalibration transitions{};
  UnknownNatureCalibration unknown_nature{};
  ProcessLabelCalibration process_labels{};

  // Fraction of events initiated by processes that remain unknown to the
  // ground truth (not covered by Tables X/XII).
  double unknown_process_event_share = 0.04;

  // Share of benign files that hit the whitelist (vs. clean VT history).
  double benign_whitelist_share = 0.60;

  // Helper: scaled count with a floor of 1 (for small catalogue entries).
  [[nodiscard]] std::uint64_t scaled(std::uint64_t paper_count) const {
    const auto v = static_cast<std::uint64_t>(
        static_cast<double>(paper_count) * scale + 0.5);
    return v == 0 ? 1 : v;
  }
};

// The profile transcribed from the paper (see file header). `scale`
// defaults to 0.10 — a tenth of the paper's corpus — so the full pipeline
// runs in seconds; pass another scale to resize.
CalibrationProfile paper_calibration(double scale = 0.10);

}  // namespace longtail::synth

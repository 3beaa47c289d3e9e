#include "synth/calibration.hpp"

namespace longtail::synth {

namespace {

using model::BrowserKind;
using model::MalwareType;
using model::ProcessCategory;

constexpr std::size_t idx(MalwareType t) { return static_cast<std::size_t>(t); }

// Builds a TypePct from per-type percentages (paper tables quote percent;
// stored as fractions of 1).
TypePct type_pct(double dropper, double pup, double adware, double trojan,
                 double banker, double bot, double fakeav, double ransomware,
                 double worm, double spyware, double undefined) {
  TypePct p{};
  p[idx(MalwareType::kDropper)] = dropper / 100.0;
  p[idx(MalwareType::kPup)] = pup / 100.0;
  p[idx(MalwareType::kAdware)] = adware / 100.0;
  p[idx(MalwareType::kTrojan)] = trojan / 100.0;
  p[idx(MalwareType::kBanker)] = banker / 100.0;
  p[idx(MalwareType::kBot)] = bot / 100.0;
  p[idx(MalwareType::kFakeAv)] = fakeav / 100.0;
  p[idx(MalwareType::kRansomware)] = ransomware / 100.0;
  p[idx(MalwareType::kWorm)] = worm / 100.0;
  p[idx(MalwareType::kSpyware)] = spyware / 100.0;
  p[idx(MalwareType::kUndefined)] = undefined / 100.0;
  return p;
}

}  // namespace

CalibrationProfile paper_calibration(double scale) {
  CalibrationProfile c;
  c.scale = scale;

  // ---- Table I: monthly summary -------------------------------------
  // {machines, events, processes, files, urls,
  //  file benign%, likely-benign%, malicious%, likely-malicious%}
  // The verdict fractions below are the Table I monthly percentages scaled
  // by a constant factor so the *distinct-file* overall row (2.3% benign,
  // 2.5% likely-benign, 9.9% malicious, 2.3% likely-malicious) is matched:
  // monthly columns double-count files that span months, so their weighted
  // average exceeds the overall row.
  constexpr double kB = 2.3 / 3.34, kLB = 2.5 / 3.23, kM = 9.9 / 10.75,
                   kLM = 2.3 / 3.19;
  // clang-format off
  c.months = {{
      {292'516, 578'510, 27'265, 366'981, 318'834, .029 * kB, .028 * kLB, .079 * kM, .028 * kLM},
      {246'481, 470'291, 25'001, 296'362, 258'410, .031 * kB, .031 * kLB, .089 * kM, .031 * kLM},
      {248'568, 493'487, 25'497, 312'662, 282'179, .030 * kB, .031 * kLB, .096 * kM, .029 * kLM},
      {215'693, 427'110, 23'078, 258'752, 250'634, .036 * kB, .034 * kLB, .126 * kM, .032 * kLM},
      {180'947, 351'271, 20'071, 218'156, 206'095, .037 * kB, .035 * kLB, .125 * kM, .032 * kLM},
      {176'463, 351'509, 23'799, 206'309, 201'920, .038 * kB, .034 * kLB, .140 * kM, .035 * kLM},
      {157'457, 323'159, 26'304, 188'564, 187'315, .040 * kB, .037 * kLB, .126 * kM, .036 * kLM},
  }};
  // clang-format on

  // ---- Table II: behaviour-type mix of malicious files ----------------
  c.malware_type_pct = type_pct(22.7, 16.8, 15.4, 11.3, 0.9, 0.6, 0.5, 0.3,
                                0.1, 0.04, 31.3);

  // ---- Table X: benign process categories ----------------------------
  c.benign_procs = {
      {ProcessCategory::kBrowser, 1'342, 799'342, 1'120'855, 28'265, 113'750,
       type_pct(28.05, 18.55, 7.36, 10.48, 0.23, 0.22, 0.35, 0.27, 0.05, 0.03,
                34.43)},
      {ProcessCategory::kWindows, 587, 429'593, 368'925, 23'059, 68'767,
       type_pct(25.42, 17.75, 5.80, 11.75, 1.23, 0.73, 0.11, 0.37, 0.08, 0.06,
                36.70)},
      {ProcessCategory::kJava, 173, 2'977, 227, 25, 488,
       type_pct(12.30, 1.02, 0.0, 45.29, 6.97, 15.78, 0.0, 4.30, 0.82, 0.0,
                12.54)},
      {ProcessCategory::kAcrobatReader, 9, 1'080, 264, 0, 696,
       type_pct(23.71, 0.0, 0.0, 39.51, 15.80, 8.19, 1.44, 3.74, 0.29, 0.43,
                6.89)},
      {ProcessCategory::kOther, 8'714, 112'681, 68'334, 5'642, 15'440,
       type_pct(17.22, 22.57, 8.38, 11.34, 1.20, 0.79, 5.03, 0.44, 0.30, 0.02,
                32.71)},
  };

  // ---- Table XII: malicious process types -----------------------------
  c.mal_procs = {
      {MalwareType::kTrojan, 3'442, 11'042, 1'265, 73, 4'168,
       type_pct(10.94, 8.25, 11.80, 51.90, 4.25, 0.89, 0.12, 0.34, 0.10, 0.0,
                11.42)},
      {MalwareType::kDropper, 4'242, 10'453, 1'565, 267, 2'992,
       type_pct(39.10, 10.26, 8.46, 16.78, 7.59, 1.34, 0.20, 0.47, 0.30, 0.07,
                15.44)},
      {MalwareType::kRansomware, 136, 332, 7, 0, 147,
       type_pct(3.40, 0.0, 0.0, 9.52, 1.36, 0.0, 0.0, 80.95, 0.0, 0.0, 4.76)},
      {MalwareType::kBot, 323, 689, 81, 2, 394,
       type_pct(4.57, 2.54, 0.25, 15.99, 4.31, 64.72, 0.25, 1.27, 0.51, 0.0,
                5.58)},
      {MalwareType::kWorm, 67, 164, 4, 0, 69,
       type_pct(4.35, 1.45, 0.0, 4.35, 8.70, 1.45, 0.0, 0.0, 72.46, 0.0,
                7.25)},
      {MalwareType::kSpyware, 7, 19, 2, 1, 6,
       type_pct(0.0, 0.0, 0.0, 16.67, 0.0, 0.0, 0.0, 0.0, 0.0, 66.67, 16.67)},
      {MalwareType::kBanker, 484, 1'146, 47, 5, 525,
       type_pct(4.00, 0.0, 0.19, 14.48, 76.00, 0.19, 0.38, 0.19, 0.57, 0.0,
                4.00)},
      {MalwareType::kFakeAv, 43, 81, 1, 0, 53,
       type_pct(7.55, 0.0, 0.0, 22.64, 9.43, 0.0, 56.60, 0.0, 0.0, 0.0, 3.77)},
      {MalwareType::kAdware, 2'862, 16'509, 2'934, 98, 6'078,
       type_pct(2.91, 9.97, 66.24, 6.65, 0.13, 0.03, 0.0, 0.0, 0.0, 0.0,
                14.07)},
      {MalwareType::kPup, 5'597, 32'590, 6'757, 199, 16'957,
       type_pct(4.57, 22.91, 58.64, 6.30, 0.01, 0.01, 0.01, 0.02, 0.0, 0.0,
                7.54)},
      {MalwareType::kUndefined, 8'905, 29'216, 6'343, 499, 8'329,
       type_pct(3.77, 5.53, 6.52, 3.36, 0.36, 0.22, 0.01, 0.04, 0.06, 0.04,
                80.09)},
  };

  // ---- Table XI: browsers ---------------------------------------------
  c.browsers = {{
      {BrowserKind::kFirefox, 378, 86'104, 0.2600},
      {BrowserKind::kChrome, 528, 344'994, 0.3192},
      {BrowserKind::kOpera, 91, 4'337, 0.2783},
      {BrowserKind::kSafari, 17, 1'762, 0.1856},
      {BrowserKind::kInternetExplorer, 307, 411'138, 0.1809},
  }};

  // ---- Table VI: signing rates ----------------------------------------
  // Percent signed per type, overall. (Trojan/dropper/adware browser cells
  // are unreadable in the original table; values estimated consistently
  // with the row pattern "browser-downloaded files are more often
  // signed".)
  c.signing.signed_pct = type_pct(85.6, 76.0, 84.0, 30.0, 1.2, 1.5, 2.8, 44.4,
                                  5.5, 21.2, 65.1);
  c.signing.browser_signed_pct = type_pct(89.0, 79.6, 91.8, 40.0, 1.8, 2.2,
                                          4.5, 68.7, 12.3, 25.0, 71.3);
  {
    // Browser share per type = "From Browsers # files" / "# files".
    TypePct share{};
    share[idx(MalwareType::kTrojan)] = 12'827.0 / 22'413.0;
    share[idx(MalwareType::kDropper)] = 33'820.0 / 43'423.0;
    share[idx(MalwareType::kRansomware)] = 313.0 / 563.0;
    share[idx(MalwareType::kBot)] = 268.0 / 1'092.0;
    share[idx(MalwareType::kWorm)] = 57.0 / 201.0;
    share[idx(MalwareType::kSpyware)] = 40.0 / 80.0;
    share[idx(MalwareType::kBanker)] = 272.0 / 1'719.0;
    share[idx(MalwareType::kFakeAv)] = 446.0 / 987.0;
    share[idx(MalwareType::kAdware)] = 8'792.0 / 29'345.0;
    share[idx(MalwareType::kPup)] = 21'792.0 / 31'018.0;
    share[idx(MalwareType::kUndefined)] = 42'614.0 / 60'609.0;
    c.signing.browser_share = share;
  }
  c.signing.benign_signed = 0.307;
  c.signing.benign_browser_share = 30'346.0 / 43'601.0;
  c.signing.benign_browser_signed = 0.321;
  c.signing.unknown_signed = 0.384;
  c.signing.unknown_browser_share = 1'227'241.0 / 1'626'901.0;
  c.signing.unknown_browser_signed = 0.421;

  // ---- Table VII: signer pools ----------------------------------------
  c.signers.per_type = {};
  c.signers.common_with_benign = {};
  auto set_signers = [&](MalwareType t, std::uint32_t total,
                         std::uint32_t common) {
    c.signers.per_type[idx(t)] = total;
    c.signers.common_with_benign[idx(t)] = common;
  };
  set_signers(MalwareType::kTrojan, 426, 71);
  set_signers(MalwareType::kDropper, 248, 46);
  set_signers(MalwareType::kRansomware, 14, 4);
  set_signers(MalwareType::kBanker, 11, 2);
  set_signers(MalwareType::kBot, 15, 3);
  set_signers(MalwareType::kWorm, 7, 1);
  set_signers(MalwareType::kSpyware, 9, 4);
  set_signers(MalwareType::kFakeAv, 14, 4);
  set_signers(MalwareType::kAdware, 532, 77);
  set_signers(MalwareType::kPup, 691, 108);
  set_signers(MalwareType::kUndefined, 1'025, 339);
  c.signers.benign = 3'000;  // not published; Fig. 4-consistent

  // ---- Unknown-file hidden nature --------------------------------------
  c.unknown_nature.benign_fraction = 0.40;
  c.unknown_nature.malicious_type_pct = type_pct(
      10.0, 22.0, 18.0, 8.0, 0.5, 0.4, 0.4, 0.2, 0.1, 0.1, 40.3);

  return c;
}

}  // namespace longtail::synth

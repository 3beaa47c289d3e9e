#include "synth/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_set>

#include "synth/names.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace longtail::synth {

namespace {

using model::BrowserKind;
using model::CaId;
using model::DomainId;
using model::MalwareType;
using model::PackerId;
using model::ProcessCategory;
using model::ProcessId;
using model::SignerId;

constexpr std::size_t idx(MalwareType t) { return static_cast<std::size_t>(t); }

// Interns `target` curated names first, then filler names until `count`
// distinct entries exist; returns the interned ids in order.
template <typename NameGen>
std::vector<std::uint32_t> fill_pool(util::StringInterner& interner,
                                     const std::vector<std::string>& curated,
                                     std::size_t count, util::Rng& rng,
                                     NameGen&& gen) {
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  std::unordered_set<std::uint32_t> seen;
  for (const auto& name : curated) {
    if (ids.size() >= count) break;
    const auto id = interner.intern(name);
    if (seen.insert(id).second) ids.push_back(id);
  }
  while (ids.size() < count) {
    const auto id = interner.intern(gen(rng));
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

}  // namespace

World build_world(const CalibrationProfile& profile, util::Rng& rng,
                  groundtruth::AvSimulator& avsim) {
  LONGTAIL_TRACE_SPAN("synth.build_world");
  World w;
  w.profile = profile;
  const CuratedNames& names = curated_names();

  // ---- CAs -------------------------------------------------------------
  std::vector<CaId> cas;
  for (const auto& ca : names.cas)
    cas.push_back(CaId{w.corpus.ca_names.intern(ca)});

  // ---- Signers -----------------------------------------------------------
  // Structure per Table VII: a shared pool (signs both benign and malware),
  // a benign-exclusive pool, a malicious-exclusive pool; per-type pools are
  // (overlapping) subsets of shared + malicious-exclusive.
  const std::size_t n_shared = profile.scaled(513);
  std::uint32_t common_total = 0, signers_total = 0;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
    common_total += profile.signers.common_with_benign[t];
    signers_total += profile.signers.per_type[t];
  }
  (void)common_total;
  (void)signers_total;
  const std::size_t n_mal_excl = profile.scaled(1'870 - 513);
  const std::size_t n_benign_excl =
      profile.scaled(profile.signers.benign - 513);

  auto shared_ids =
      fill_pool(w.corpus.signer_names, names.shared_signers, n_shared, rng,
                synth_company_name);
  auto mal_excl_ids =
      fill_pool(w.corpus.signer_names, names.malicious_only_signers, n_mal_excl,
                rng, synth_company_name);
  auto benign_excl_ids =
      fill_pool(w.corpus.signer_names, names.benign_only_signers, n_benign_excl,
                rng, synth_company_name);

  // signer -> CA (stable per signer; a learnable feature).
  const auto assign_ca = [&](std::uint32_t signer_name_id) {
    while (w.signer_ca.size() <= signer_name_id) w.signer_ca.emplace_back();
    if (!w.signer_ca[signer_name_id].valid())
      w.signer_ca[signer_name_id] = cas[rng.uniform(cas.size())];
  };
  for (auto id : shared_ids) assign_ca(id);
  for (auto id : mal_excl_ids) assign_ca(id);
  for (auto id : benign_excl_ids) assign_ca(id);

  // Interleave shared signers into the benign pool's popularity head
  // (roughly one slot in five): a signer that signs malware *and* benign
  // software must actually produce benign volume every month, otherwise
  // the rule learner would see it as malicious-exclusive and the paper's
  // low false-positive rates would be unattainable.
  {
    std::size_t bi = 0, si = 0;
    while (bi < benign_excl_ids.size() || si < shared_ids.size()) {
      for (int k = 0; k < 4 && bi < benign_excl_ids.size(); ++k)
        w.benign_signer_pool.push_back(SignerId{benign_excl_ids[bi++]});
      if (si < shared_ids.size())
        w.benign_signer_pool.push_back(SignerId{shared_ids[si++]});
    }
  }

  // Per-type pools: scaled(common[t]) signers from the shared pool plus
  // scaled(per_type[t] - common[t]) from the malicious-exclusive pool,
  // drawn with a per-type offset so pools overlap across types the way the
  // table's totals require.
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
    const std::size_t want_common =
        profile.scaled(profile.signers.common_with_benign[t]);
    // Three rotation windows of capacity: the generator slides the active
    // signer window month by month (certificate churn), so a type's pool
    // must hold several windows' worth of exclusive signers.
    const std::size_t want_excl =
        3 * profile.scaled(profile.signers.per_type[t] -
                           profile.signers.common_with_benign[t]);
    auto& pool = w.type_signer_pool[t];
    const std::size_t excl_off = rng.uniform(mal_excl_ids.size());
    for (std::size_t i = 0; i < want_excl && i < mal_excl_ids.size(); ++i)
      pool.push_back(
          SignerId{mal_excl_ids[(excl_off + i * 7) % mal_excl_ids.size()]});
    // Shared signers come from the head of the shared pool — the same
    // signers that carry benign volume — so Table VII's benign overlap is
    // real, and the rule learner sees genuinely mixed evidence for them.
    for (std::size_t i = 0; i < want_common && i < shared_ids.size(); ++i)
      pool.push_back(SignerId{shared_ids[i]});
    // Popularity order: shuffle lightly so curated heads spread over types,
    // then keep deterministic order.
    rng.shuffle(pool);
    if (pool.empty())
      pool.push_back(SignerId{mal_excl_ids[t % mal_excl_ids.size()]});
  }

  // Special benign signers for the process catalogue.
  const auto special_signer = [&](std::string_view name) {
    const auto id = w.corpus.signer_names.intern(name);
    assign_ca(id);
    return SignerId{id};
  };
  w.windows_signer = special_signer("Microsoft Windows");
  w.browser_signer[static_cast<std::size_t>(BrowserKind::kFirefox)] =
      special_signer("Mozilla Corporation");
  w.browser_signer[static_cast<std::size_t>(BrowserKind::kChrome)] =
      special_signer("Google Inc");
  w.browser_signer[static_cast<std::size_t>(BrowserKind::kOpera)] =
      special_signer("Opera Software ASA");
  w.browser_signer[static_cast<std::size_t>(BrowserKind::kSafari)] =
      special_signer("Apple Inc.");
  w.browser_signer[static_cast<std::size_t>(BrowserKind::kInternetExplorer)] =
      special_signer("Microsoft Corporation");
  w.java_signer = special_signer("Oracle America Inc.");
  w.acrobat_signer = special_signer("Adobe Systems Incorporated");

  // ---- Packers -----------------------------------------------------------
  const auto shared_packers =
      fill_pool(w.corpus.packer_names, names.shared_packers,
                profile.scaled(profile.packers.shared_packers), rng,
                synth_packer_name);
  const auto benign_only =
      fill_pool(w.corpus.packer_names, names.benign_packers,
                profile.scaled(profile.packers.benign_only), rng,
                synth_packer_name);
  const auto mal_only =
      fill_pool(w.corpus.packer_names, names.malicious_packers,
                profile.scaled(profile.packers.malicious_only), rng,
                synth_packer_name);
  for (auto id : shared_packers) w.benign_packer_pool.push_back(PackerId{id});
  for (auto id : benign_only) w.benign_packer_pool.push_back(PackerId{id});
  for (auto id : shared_packers)
    w.malicious_packer_pool.push_back(PackerId{id});
  for (auto id : mal_only) w.malicious_packer_pool.push_back(PackerId{id});

  // ---- Families ------------------------------------------------------------
  const auto family_name_ids =
      fill_pool(w.corpus.family_names, names.families,
                std::max<std::size_t>(profile.scaled(profile.total_families),
                                      names.families.size()),
                rng, synth_family_name);
  w.family_ids = family_name_ids;

  // ---- Domains --------------------------------------------------------------
  auto add_domains = [&](const std::vector<std::string>& curated,
                         std::size_t count,
                         auto&& meta_fn) -> std::vector<DomainId> {
    const auto name_ids = fill_pool(w.corpus.domain_names, curated, count, rng,
                                    synth_domain_name);
    std::vector<DomainId> out;
    out.reserve(name_ids.size());
    for (std::size_t i = 0; i < name_ids.size(); ++i) {
      const DomainId id{name_ids[i]};
      while (w.corpus.domains.size() <= id.raw())
        w.corpus.domains.emplace_back();
      w.corpus.domains[id.raw()] = meta_fn(i);
      out.push_back(id);
    }
    return out;
  };

  w.mixed_domains = add_domains(
      names.mixed_hosting_domains, profile.scaled(600), [&](std::size_t i) {
        // Popular file-hosting: high Alexa rank, on the curated whitelist.
        return model::DomainMeta{
            .alexa_rank = static_cast<std::uint32_t>(40 + i * 37),
            .on_gsb = rng.bernoulli(0.05),
            .on_private_blacklist = false,
            .on_curated_whitelist = true};
      });
  w.vendor_domains = add_domains(
      names.vendor_domains, profile.scaled(2'000), [&](std::size_t i) {
        return model::DomainMeta{
            .alexa_rank = static_cast<std::uint32_t>(1'000 + i * 173),
            .on_gsb = false,
            .on_private_blacklist = false,
            .on_curated_whitelist = true};
      });
  w.dedicated_domains = add_domains(
      names.dedicated_domains, profile.scaled(6'000), [&](std::size_t) {
        const bool listed = rng.bernoulli(0.75);
        return model::DomainMeta{
            .alexa_rank = rng.bernoulli(0.7)
                              ? 0u
                              : static_cast<std::uint32_t>(
                                    100'000 + rng.uniform(900'000)),
            .on_gsb = listed,
            .on_private_blacklist = listed,
            .on_curated_whitelist = false};
      });
  w.fakeav_domains = add_domains(
      names.fakeav_domains, profile.scaled(400), [&](std::size_t) {
        const bool listed = rng.bernoulli(0.85);
        return model::DomainMeta{
            .alexa_rank = rng.bernoulli(0.5)
                              ? 0u
                              : static_cast<std::uint32_t>(
                                    200'000 + rng.uniform(800'000)),
            .on_gsb = listed,
            .on_private_blacklist = listed,
            .on_curated_whitelist = false};
      });
  w.adware_domains = add_domains(
      names.adware_domains, profile.scaled(800), [&](std::size_t i) {
        // Free-streaming bait sites hold decent Alexa ranks (§IV-B).
        return model::DomainMeta{
            .alexa_rank = static_cast<std::uint32_t>(5'000 + i * 97),
            .on_gsb = rng.bernoulli(0.4),
            .on_private_blacklist = rng.bernoulli(0.4),
            .on_curated_whitelist = false};
      });
  w.update_domains = add_domains(
      names.update_domains, names.update_domains.size(), [&](std::size_t i) {
        return model::DomainMeta{
            .alexa_rank = static_cast<std::uint32_t>(10 + i),
            .on_gsb = false,
            .on_private_blacklist = false,
            .on_curated_whitelist = true};
      });

  const std::size_t named_domains =
      w.mixed_domains.size() + w.vendor_domains.size() +
      w.dedicated_domains.size() + w.fakeav_domains.size() +
      w.adware_domains.size() + w.update_domains.size();
  const std::size_t domain_target = profile.scaled(profile.total_domains);
  const std::size_t tail_count =
      domain_target > named_domains + 100 ? domain_target - named_domains
                                          : 100;
  w.tail_domains =
      add_domains({}, tail_count, [&](std::size_t) {
        return model::DomainMeta{
            .alexa_rank = rng.bernoulli(0.85)
                              ? 0u
                              : static_cast<std::uint32_t>(
                                    100'000 + rng.uniform(900'000)),
            .on_gsb = rng.bernoulli(0.02),
            .on_private_blacklist = rng.bernoulli(0.02),
            .on_curated_whitelist = false};
      });

  // ---- Machines -----------------------------------------------------------
  // Pool slightly larger than the paper's machine count; a few percent
  // never trigger a download.
  const auto n_machines = static_cast<std::uint32_t>(
      profile.scaled(profile.total_machines) * 103 / 100);
  w.machines.resize(n_machines);
  // Browser preference shares from Table XI machine counts.
  double browser_total = 0;
  for (const auto& b : profile.browsers)
    browser_total += static_cast<double>(b.machines);
  std::array<double, model::kNumBrowserKinds> browser_share{};
  for (const auto& b : profile.browsers)
    browser_share[static_cast<std::size_t>(b.kind)] =
        static_cast<double>(b.machines) / browser_total;
  const util::DiscreteSampler browser_pick(browser_share);

  std::vector<double> plain_w(n_machines), risky_w(n_machines),
      heavy_w(n_machines);
  for (std::uint32_t m = 0; m < n_machines; ++m) {
    auto& mp = w.machines[m];
    const auto kind_index = browser_pick.sample(rng);
    mp.browser = static_cast<BrowserKind>(kind_index);
    // Per-browser baseline risk from Table XI infection rates, with
    // individual log-normal spread.
    const double base_risk =
        profile.browsers[kind_index].infection_rate / 0.18;
    mp.risk = static_cast<float>(base_risk *
                                 std::exp(rng.normal(0.0, 0.4)));
    mp.activity = static_cast<float>(0.8 + rng.exponential(0.5));
    plain_w[m] = mp.activity;
    risky_w[m] = static_cast<double>(mp.activity) * mp.risk;
    // Only "tail downloaders" (a deterministic ~62% slice of the park)
    // ever fetch prevalence-1 unknown files; the rest of the population
    // sticks to popular software. This reproduces the paper's §IV-A
    // finding that 69% of machines downloaded at least one unknown file
    // without saturating to ~100%.
    const bool tail_downloader =
        util::mix64(m * 0x2545F4914F6CDD1DULL) % 100 < 62;
    heavy_w[m] = tail_downloader ? mp.activity : 0.0;
  }
  w.machine_sampler_plain = util::DiscreteSampler(plain_w);
  w.machine_sampler_risky = util::DiscreteSampler(risky_w);
  w.machine_sampler_heavy = util::DiscreteSampler(heavy_w);

  // ---- Benign process catalogue ---------------------------------------------
  // Canonical executable names per category (§V-A's name list). Windows
  // system processes rotate through the real system binaries.
  constexpr std::array<std::string_view, model::kNumBrowserKinds>
      kBrowserNames = {"firefox.exe", "chrome.exe", "opera.exe",
                       "safari.exe", "iexplore.exe"};
  constexpr std::array<std::string_view, 12> kWindowsNames = {
      "svchost.exe",  "explorer.exe", "rundll32.exe", "wscript.exe",
      "mshta.exe",    "winlogon.exe", "services.exe", "taskhost.exe",
      "dllhost.exe",  "msiexec.exe",  "spoolsv.exe",  "wmiprvse.exe"};
  constexpr std::array<std::string_view, 3> kJavaNames = {
      "javaw.exe", "java.exe", "javaws.exe"};
  constexpr std::array<std::string_view, 2> kAcrobatNames = {
      "acrord32.exe", "acrobat.exe"};
  auto synth_exe_name = [&] { return synth_family_name(rng) + ".exe"; };
  auto intern_name = [&](std::string_view name) {
    return w.corpus.process_names.intern(name);
  };

  auto add_process = [&](model::ProcessMeta meta, Nature nature,
                         MalwareType type, model::Verdict intended) {
    const auto id = static_cast<std::uint32_t>(w.corpus.processes.size());
    meta.sha = util::digest_of(/*kind=*/2, id);
    w.corpus.processes.push_back(meta);
    w.truth.process_nature.push_back(nature);
    w.truth.process_type.push_back(type);
    w.truth.process_intended.push_back(intended);
    return ProcessId{id};
  };

  auto benign_proc_meta = [&](ProcessCategory cat, BrowserKind kind,
                              SignerId signer) {
    model::ProcessMeta meta;
    meta.category = cat;
    meta.browser = kind;
    meta.is_signed = true;
    meta.signer = signer;
    meta.ca = w.signer_ca[signer.raw()];
    meta.is_packed = false;
    return meta;
  };

  for (const auto& b : profile.browsers) {
    ProcRange range;
    range.begin = static_cast<std::uint32_t>(w.corpus.processes.size());
    const auto versions = profile.scaled(b.versions);
    for (std::uint64_t v = 0; v < versions; ++v) {
      auto meta = benign_proc_meta(
          ProcessCategory::kBrowser, b.kind,
          w.browser_signer[static_cast<std::size_t>(b.kind)]);
      meta.name = intern_name(kBrowserNames[static_cast<std::size_t>(b.kind)]);
      const auto id = add_process(meta, Nature::kBenign,
                                  MalwareType::kUndefined,
                                  model::Verdict::kBenign);
      w.whitelist.add(id);
    }
    range.end = static_cast<std::uint32_t>(w.corpus.processes.size());
    w.browser_procs[static_cast<std::size_t>(b.kind)] = range;
  }

  auto fill_benign_range = [&](ProcessCategory cat, std::uint64_t versions,
                               SignerId signer) {
    ProcRange range;
    range.begin = static_cast<std::uint32_t>(w.corpus.processes.size());
    for (std::uint64_t v = 0; v < versions; ++v) {
      model::ProcessMeta meta;
      if (cat == ProcessCategory::kOther) {
        meta.category = cat;
        meta.is_signed = rng.bernoulli(0.7);
        if (meta.is_signed) {
          meta.signer = w.benign_signer_pool[rng.uniform(
              w.benign_signer_pool.size())];
          meta.ca = w.signer_ca[meta.signer.raw()];
        }
        meta.is_packed = rng.bernoulli(0.25);
        if (meta.is_packed)
          meta.packer = w.benign_packer_pool[rng.uniform(
              w.benign_packer_pool.size())];
      } else {
        meta = benign_proc_meta(cat, BrowserKind::kNotABrowser, signer);
      }
      switch (cat) {
        case ProcessCategory::kWindows:
          meta.name = intern_name(kWindowsNames[v % kWindowsNames.size()]);
          break;
        case ProcessCategory::kJava:
          meta.name = intern_name(kJavaNames[v % kJavaNames.size()]);
          break;
        case ProcessCategory::kAcrobatReader:
          meta.name = intern_name(kAcrobatNames[v % kAcrobatNames.size()]);
          break;
        default:
          meta.name = intern_name(synth_exe_name());
          break;
      }
      const auto id = add_process(meta, Nature::kBenign,
                                  MalwareType::kUndefined,
                                  model::Verdict::kBenign);
      w.whitelist.add(id);
    }
    range.end = static_cast<std::uint32_t>(w.corpus.processes.size());
    return range;
  };

  const auto& procs = profile.benign_procs;
  w.windows_procs =
      fill_benign_range(ProcessCategory::kWindows,
                        profile.scaled(procs[1].versions), w.windows_signer);
  w.java_procs = fill_benign_range(
      ProcessCategory::kJava, profile.scaled(procs[2].versions), w.java_signer);
  w.acrobat_procs =
      fill_benign_range(ProcessCategory::kAcrobatReader,
                        profile.scaled(procs[3].versions), w.acrobat_signer);
  w.other_procs = fill_benign_range(
      ProcessCategory::kOther, profile.scaled(procs[4].versions), SignerId{});

  // ---- Malicious processes --------------------------------------------------
  for (const auto& mp : profile.mal_procs) {
    const auto t = idx(mp.type);
    const auto count = profile.scaled(mp.processes);
    auto& pool = w.malproc_pool[t];
    const double signed_rate = profile.signing.signed_pct[t];
    for (std::uint64_t i = 0; i < count; ++i) {
      model::ProcessMeta meta;
      meta.category = ProcessCategory::kOther;
      // A slice of malware masquerades as a legitimate process name
      // (§V-A's caveat); the whitelist check keeps it out of Table X.
      meta.name = rng.bernoulli(0.08)
                      ? intern_name(rng.bernoulli(0.5)
                                        ? kBrowserNames[rng.uniform(
                                              kBrowserNames.size())]
                                        : kWindowsNames[rng.uniform(
                                              kWindowsNames.size())])
                      : intern_name(synth_exe_name());
      meta.is_signed = rng.bernoulli(signed_rate);
      if (meta.is_signed) {
        const auto& signers = w.type_signer_pool[t];
        // Zipf-ish: popular signers sign most processes of the type.
        const auto rank = static_cast<std::size_t>(
            static_cast<double>(signers.size()) *
            std::pow(rng.uniform01(), 2.2));
        meta.signer = signers[std::min(rank, signers.size() - 1)];
        meta.ca = w.signer_ca[meta.signer.raw()];
      }
      meta.is_packed = rng.bernoulli(profile.packers.malicious_packed);
      if (meta.is_packed)
        meta.packer = w.malicious_packer_pool[rng.uniform(
            w.malicious_packer_pool.size())];
      const auto id = add_process(meta, Nature::kMalicious, mp.type,
                                  model::Verdict::kMalicious);
      pool.push_back(id);

      // VT evidence in the process's own type vocabulary.
      const auto fam = w.family_ids[static_cast<std::size_t>(
          static_cast<double>(w.family_ids.size()) *
          std::pow(rng.uniform01(), 3.0))];
      const model::Timestamp first_observed =
          static_cast<model::Timestamp>(rng.uniform(
              static_cast<std::uint64_t>(model::kMonthStart[7])));
      w.vt.set_process_count(w.corpus.processes.size());
      groundtruth::VtReport report = avsim.malicious_report(
          mp.type, w.corpus.family_names.at(fam), rng.bernoulli(0.42),
          first_observed, rng.uniform01());
      w.vt.put(id, std::move(report));
    }
  }

  // ---- Unknown / likely-* processes -----------------------------------------
  const auto total_procs = profile.scaled(profile.total_processes);
  const auto n_lb = static_cast<std::uint64_t>(
      static_cast<double>(total_procs) * profile.process_labels.likely_benign);
  const auto n_lm = static_cast<std::uint64_t>(
      static_cast<double>(total_procs) *
      profile.process_labels.likely_malicious);
  const std::uint64_t accounted = w.corpus.processes.size();
  const std::uint64_t n_unknown =
      total_procs > accounted + n_lb + n_lm
          ? total_procs - accounted - n_lb - n_lm
          : 100;

  auto add_graylist_proc = [&](model::Verdict intended) {
    const bool benign_nature = rng.bernoulli(0.5);
    MalwareType type = MalwareType::kUndefined;
    model::ProcessMeta meta;
    meta.category = ProcessCategory::kOther;
    meta.name = !benign_nature && rng.bernoulli(0.05)
                    ? intern_name(
                          kWindowsNames[rng.uniform(kWindowsNames.size())])
                    : intern_name(synth_exe_name());
    if (benign_nature) {
      meta.is_signed = rng.bernoulli(0.45);
      if (meta.is_signed)
        meta.signer =
            w.benign_signer_pool[rng.uniform(w.benign_signer_pool.size())];
      meta.is_packed = rng.bernoulli(profile.packers.benign_packed);
      if (meta.is_packed)
        meta.packer =
            w.benign_packer_pool[rng.uniform(w.benign_packer_pool.size())];
    } else {
      // Grayware-leaning: pup/adware/undefined heavy.
      const double r = rng.uniform01();
      type = r < 0.35   ? MalwareType::kPup
             : r < 0.6  ? MalwareType::kAdware
             : r < 0.75 ? MalwareType::kDropper
                        : MalwareType::kUndefined;
      meta.is_signed = rng.bernoulli(0.55);
      if (meta.is_signed) {
        const auto& signers = w.type_signer_pool[idx(type)];
        meta.signer = signers[rng.uniform(signers.size())];
      }
      meta.is_packed = rng.bernoulli(profile.packers.unknown_packed);
      if (meta.is_packed)
        meta.packer = w.malicious_packer_pool[rng.uniform(
            w.malicious_packer_pool.size())];
    }
    if (meta.is_signed) meta.ca = w.signer_ca[meta.signer.raw()];
    const auto id = add_process(
        meta, benign_nature ? Nature::kBenign : Nature::kMalicious, type,
        intended);
    w.unknown_procs.push_back(id);
    return id;
  };

  w.vt.set_process_count(w.corpus.processes.size() + n_lb + n_lm + n_unknown);
  for (std::uint64_t i = 0; i < n_lb; ++i) {
    const auto id = add_graylist_proc(model::Verdict::kLikelyBenign);
    w.vt.put(id, avsim.clean_report(0, static_cast<std::int64_t>(
                                           rng.uniform(14))));
  }
  for (std::uint64_t i = 0; i < n_lm; ++i) {
    const auto id = add_graylist_proc(model::Verdict::kLikelyMalicious);
    const auto type = w.truth.process_type[id.raw()];
    w.vt.put(id, avsim.likely_malicious_report(type, "", 0));
  }
  for (std::uint64_t i = 0; i < n_unknown; ++i)
    add_graylist_proc(model::Verdict::kUnknown);

  return w;
}

}  // namespace longtail::synth

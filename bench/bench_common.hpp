// Shared support for the table/figure reproduction binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation and prints the measured values next to the paper's reference
// values. The corpus scale defaults to 1/10 of the paper's dataset and can
// be overridden with the LONGTAIL_SCALE environment variable (e.g.
// LONGTAIL_SCALE=0.25 ./table16_rules).
// Thread count comes from LONGTAIL_THREADS (see util/thread_pool.hpp);
// LONGTAIL_CORPUS_CACHE=<dir> reloads the generated dataset from an LTDS
// file instead of regenerating it (make_dataset). The perf_* binaries
// additionally emit machine-readable timing JSON (BENCH_pipeline.json /
// BENCH_rules.json) so the performance trajectory is tracked across
// commits.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

extern "C" char** environ;  // walked for the LONGTAIL_* run manifest

#include "core/longtail.hpp"
#include "synth/dataset_io.hpp"
#include "telemetry/faults.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::bench {

inline double bench_scale(double fallback = 0.10) {
  // strtod with end-pointer validation: atof returns 0.0 on garbage, which
  // silently fell back. Reject trailing junk ("0.1x") and non-positive or
  // non-finite values, and say so instead of pretending the knob worked.
  if (const char* env = std::getenv("LONGTAIL_SCALE");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0' && std::isfinite(v) && v > 0.0) return v;
    std::fprintf(stderr,
                 "[longtail] warning: invalid LONGTAIL_SCALE='%s' "
                 "(want a positive number); using default %.2f\n",
                 env, fallback);
  }
  return fallback;
}

// Peak resident set of this process so far, in MiB. The one shared
// definition lives in util/profile (the sampler uses the same one); this
// alias keeps bench call sites short.
inline double max_rss_mb() { return util::profile::peak_rss_mb(); }

// Cache file name for the binary dataset at this scale, fault profile,
// and scenario. The file format version is part of the name so a codec
// bump never reads stale caches; the fault and scenario cache keys keep
// perturbed datasets from shadowing the clean one (both empty for the
// zero profiles, so unperturbed paths are unchanged). The scenario spec is
// *not* serialized inside the LTDS file — the key in the file name is
// what pins a cache entry to its scenario, so a cached dataset is never
// reused across scenario specs.
inline std::string corpus_cache_path(
    const std::string& dir, double scale,
    const telemetry::FaultProfile& faults = {},
    const synth::ScenarioProfile& scenario = {}) {
  const std::string fkey = faults.cache_key();
  const std::string skey = scenario.cache_key();
  char name[128];
  std::snprintf(name, sizeof(name), "longtail_ds_v%u_s%g%s%s%s%s.bin",
                synth::kDatasetBinaryVersion, scale, fkey.empty() ? "" : "_",
                fkey.c_str(), skey.empty() ? "" : "_", skey.c_str());
  return (std::filesystem::path(dir) / name).string();
}

// With LONGTAIL_CORPUS_CACHE=<dir> set, loads the binary dataset for this
// profile from the cache (or generates it once and saves it). Cache status
// goes to stderr so table stdout stays byte-identical either way.
inline synth::Dataset make_dataset(const synth::CalibrationProfile& profile) {
  const char* dir = std::getenv("LONGTAIL_CORPUS_CACHE");
  if (dir == nullptr || *dir == '\0') return synth::generate_dataset(profile);

  const std::string path =
      corpus_cache_path(dir, profile.scale, profile.faults, profile.scenario);
  if (std::filesystem::exists(path)) {
    try {
      auto ds = synth::load_dataset_binary(path);
      std::fprintf(stderr, "[longtail] corpus cache hit: %s\n", path.c_str());
      return ds;
    } catch (const std::exception& ex) {
      std::fprintf(stderr,
                   "[longtail] corpus cache unreadable (%s), regenerating: "
                   "%s\n",
                   ex.what(), path.c_str());
    }
  }
  std::fprintf(stderr, "[longtail] corpus cache miss: %s\n", path.c_str());
  auto ds = synth::generate_dataset(profile);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Atomic publish: write to a process-private temp name in the same
  // directory, then rename onto the final path. A bench run killed
  // mid-save can leave a stray .tmp file but never a truncated cache
  // entry; concurrent writers each publish a complete image and the last
  // rename wins. The unreadable→regenerate fallback above stays as the
  // last line of defense.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned>(::getpid()));
  try {
    synth::save_dataset_binary(ds, tmp);
    std::filesystem::rename(tmp, path);
    std::fprintf(stderr, "[longtail] corpus cache saved: %s\n", path.c_str());
  } catch (const std::exception& ex) {
    std::filesystem::remove(tmp, ec);
    std::fprintf(stderr, "[longtail] corpus cache save failed: %s\n",
                 ex.what());
  }
  return ds;
}

inline synth::Dataset make_dataset(double scale) {
  auto profile = synth::paper_calibration(scale);
  profile.faults = telemetry::faults_from_env();
  profile.scenario = synth::scenario_from_env();
  return make_dataset(profile);
}

inline core::LongtailPipeline make_pipeline(double default_scale = 0.10) {
  const double scale = bench_scale(default_scale);
  std::printf("[longtail] generating corpus at scale %.2f of the paper's "
              "dataset (LONGTAIL_SCALE to override)\n\n",
              scale);
  auto profile = synth::paper_calibration(scale);
  profile.faults = telemetry::faults_from_env();
  profile.scenario = synth::scenario_from_env();
  if (profile.faults.any())
    std::fprintf(stderr, "[longtail] fault profile active: %s\n",
                 profile.faults.spec().c_str());
  if (profile.scenario.active())
    std::fprintf(stderr, "[longtail] scenario active: %s\n",
                 profile.scenario.spec().c_str());
  return core::LongtailPipeline(make_dataset(profile));
}

inline void print_header(const std::string& title, const std::string& note) {
  std::fputs(util::banner(title).c_str(), stdout);
  if (!note.empty()) std::printf("%s\n\n", note.c_str());
}

// "measured (paper: reference)" cell helper.
inline std::string vs_paper(const std::string& measured,
                            const std::string& paper) {
  return measured + " (paper " + paper + ")";
}

// Wall-clock milliseconds of fn().
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto begin = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

// Run-provenance manifest: everything needed to reproduce (or refuse to
// compare) a bench result. Embedded as the "run" object in every
// BENCH_*.json so a number can always be traced back to the exact seed,
// scale, thread count, environment knobs, compiler, and dataset identity
// that produced it. `fingerprint` is core::dataset_fingerprint of the
// dataset the bench ran on (0 when the binary never builds one).
inline std::string run_manifest_json(double scale,
                                     std::uint64_t fingerprint = 0) {
  const auto profile = synth::paper_calibration(scale);
  const auto faults = telemetry::faults_from_env();
  const auto scenario = synth::scenario_from_env();

  // Every LONGTAIL_* environment knob, sorted, so two manifests diff
  // cleanly.
  std::map<std::string, std::string> knobs;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry = *env;
    if (entry.rfind("LONGTAIL_", 0) != 0) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    knobs.emplace(entry.substr(0, eq), entry.substr(eq + 1));
  }
  util::json::Object env_json;
  for (const auto& [key, value] : knobs) env_json.field(key, value);

  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%llx",
                static_cast<unsigned long long>(fingerprint));
#ifndef LONGTAIL_BUILD_TYPE
#define LONGTAIL_BUILD_TYPE "unknown"
#endif
  util::json::Object run;
  run.field("seed", profile.seed)
      .field("scale", scale)
      .field("threads", util::effective_threads())
      .field("hardware_concurrency",
             static_cast<unsigned>(std::thread::hardware_concurrency()))
      .raw("env", env_json.str())
      .field("compiler", std::string_view(__VERSION__))
      .field("build_type", std::string_view(LONGTAIL_BUILD_TYPE))
      .field("dataset_fingerprint", std::string_view(fp))
      .field("faults",
             faults.any() ? std::string_view(faults.spec()) : "none")
      .field("scenario",
             scenario.active() ? std::string_view(scenario.spec()) : "none");
  return run.str();
}

// Writes `content` to `default_path` (overridable via the LONGTAIL_BENCH_JSON
// environment variable; set it to an empty string to suppress the file).
inline void write_bench_json(const std::string& default_path,
                             const std::string& content) {
  std::string path = default_path;
  if (const char* env = std::getenv("LONGTAIL_BENCH_JSON")) path = env;
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(content.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("[longtail] wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[longtail] cannot write %s\n", path.c_str());
  }
}

}  // namespace longtail::bench

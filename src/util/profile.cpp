#include "util/profile.hpp"

#include <time.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace longtail::util::profile {

namespace {

std::atomic<bool> g_enabled{false};

std::uint64_t clock_ns(clockid_t id) noexcept {
  struct timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double statm_rss_mb() noexcept {
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  static const long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) /
         (1024.0 * 1024.0);
}

// The sampler whose summaries publish_metrics reports: first constructed
// wins, cleared when it is destroyed (the env-created one lives to exit).
std::atomic<Sampler*> g_active_sampler{nullptr};

Sampler*& env_sampler_slot() {
  static Sampler* sampler = nullptr;
  return sampler;
}

void stop_env_sampler() {
  if (Sampler* s = env_sampler_slot()) s->stop();
}

bool init_from_env() {
  const char* env = std::getenv("LONGTAIL_PROFILE");
  if (env == nullptr || *env == '\0' || std::string_view(env) == "0")
    return false;
  // Force trace env init first: if tracing is on, its atexit flush is
  // then registered before our sampler stop, so (LIFO) the sampler is
  // stopped — and its counter series emitted — before the flush renders.
  trace::enabled();
  g_enabled.store(true, std::memory_order_relaxed);
  // A numeric value > 1 selects the sampling interval in milliseconds.
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  const std::uint64_t interval_ms =
      (end != env && *end == '\0' && v > 1) ? static_cast<std::uint64_t>(v)
                                            : 50;
  env_sampler_slot() = new Sampler(interval_ms);  // leaked: lives to exit
  std::atexit(stop_env_sampler);
  return true;
}

}  // namespace

bool enabled() noexcept {
  static const bool env_enabled = init_from_env();
  (void)env_enabled;
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled();  // force env init first so it cannot override a later set
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::uint64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

double peak_rss_mb() noexcept {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

ResourceSample sample_resources() noexcept {
  ResourceSample s;
  s.rss_mb = statm_rss_mb();
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  s.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  s.voluntary_ctx = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.involuntary_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return s;
}

// ---- Sampler --------------------------------------------------------------

struct Sampler::Impl {
  struct Point {
    std::uint64_t ts_ns = 0;
    ResourceSample sample;
  };

  std::mutex mutex;
  std::condition_variable cv;
  bool stop_requested = false;
  std::vector<Point> points;
  std::atomic<std::uint64_t> samples{0};
  std::atomic<double> max_rss_mb{0.0};
  std::uint64_t interval_ms = 50;
  std::thread thread;
  bool stopped = false;

  void take_sample() {
    Point p;
    p.ts_ns = trace::timestamp_ns();
    p.sample = sample_resources();
    samples.fetch_add(1, std::memory_order_relaxed);
    double seen = max_rss_mb.load(std::memory_order_relaxed);
    while (p.sample.rss_mb > seen &&
           !max_rss_mb.compare_exchange_weak(seen, p.sample.rss_mb,
                                             std::memory_order_relaxed)) {
    }
    std::lock_guard<std::mutex> lock(mutex);
    points.push_back(p);
  }

  void loop() {
    for (;;) {
      take_sample();
      std::unique_lock<std::mutex> lock(mutex);
      if (cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                      [&] { return stop_requested; }))
        return;
    }
  }
};

Sampler::Sampler(std::uint64_t interval_ms) : impl_(new Impl) {
  impl_->interval_ms = interval_ms == 0 ? 1 : interval_ms;
  Sampler* expected = nullptr;
  g_active_sampler.compare_exchange_strong(expected, this,
                                           std::memory_order_relaxed);
  impl_->thread = std::thread([this] { impl_->loop(); });
}

Sampler::~Sampler() {
  stop();
  Sampler* self = this;
  g_active_sampler.compare_exchange_strong(self, nullptr,
                                           std::memory_order_relaxed);
  delete impl_;
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopped) return;
    impl_->stopped = true;
    impl_->stop_requested = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  // The sampling thread is gone: emit the buffered series as trace
  // counter events from this thread, so nothing ever appends to a trace
  // buffer concurrently with a flush.
  if (!trace::enabled()) return;
  for (const auto& p : impl_->points) {
    trace::counter_at("profile.rss_mb", p.ts_ns, p.sample.rss_mb);
    trace::counter_at("profile.minor_faults", p.ts_ns,
                      static_cast<double>(p.sample.minor_faults));
    trace::counter_at("profile.major_faults", p.ts_ns,
                      static_cast<double>(p.sample.major_faults));
    trace::counter_at("profile.voluntary_ctx", p.ts_ns,
                      static_cast<double>(p.sample.voluntary_ctx));
    trace::counter_at("profile.involuntary_ctx", p.ts_ns,
                      static_cast<double>(p.sample.involuntary_ctx));
  }
}

std::uint64_t Sampler::samples() const noexcept {
  return impl_->samples.load(std::memory_order_relaxed);
}

double Sampler::max_rss_seen_mb() const noexcept {
  return impl_->max_rss_mb.load(std::memory_order_relaxed);
}

void publish_metrics() {
  if (!metrics::enabled()) return;
  metrics::gauge("profile.peak_rss_mb").set(peak_rss_mb());
  metrics::gauge("profile.cpu_ms")
      .set(static_cast<double>(process_cpu_ns()) / 1e6);
  if (Sampler* s = g_active_sampler.load(std::memory_order_relaxed)) {
    metrics::gauge("profile.sampler.samples")
        .set(static_cast<double>(s->samples()));
    metrics::gauge("profile.sampler.max_rss_mb").set(s->max_rss_seen_mb());
  }
}

}  // namespace longtail::util::profile

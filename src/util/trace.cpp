#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "util/json.hpp"
#include "util/profile.hpp"
#include "util/thread_pool.hpp"

namespace longtail::util::trace {

namespace {

// Per-thread append-only event buffer. The registry keeps a shared_ptr so
// buffers outlive their threads (pool workers are torn down and recreated
// by set_global_threads); the thread_local holds a second ref for the
// lock-free fast path.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  bool worker = false;
  std::vector<Event> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::string path;
  std::uint32_t next_tid = 0;
  bool atexit_registered = false;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during atexit
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::uint64_t t_current_span = 0;

std::uint64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

ThreadBuffer& buffer() {
  if (!t_buffer) {
    auto buf = std::make_shared<ThreadBuffer>();
    buf->worker = ThreadPool::on_worker_thread();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    buf->tid = r.next_tid++;
    r.buffers.push_back(buf);
    t_buffer = std::move(buf);
  }
  return *t_buffer;
}

void flush_at_exit() { flush(); }

bool init_from_env() {
  if (const char* env = std::getenv("LONGTAIL_TRACE");
      env != nullptr && *env != '\0') {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.path = env;
    if (!r.atexit_registered) {
      std::atexit(flush_at_exit);
      r.atexit_registered = true;
    }
    g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace

bool enabled() noexcept {
  static const bool env_enabled = init_from_env();
  (void)env_enabled;
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on, std::string path) {
  enabled();  // ensure env init ran first so it cannot override us later
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.path = std::move(path);
    if (on && !r.path.empty() && !r.atexit_registered) {
      std::atexit(flush_at_exit);
      r.atexit_registered = true;
    }
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t current_span() noexcept { return t_current_span; }

ParentScope::ParentScope(std::uint64_t parent) noexcept
    : saved_(t_current_span) {
  t_current_span = parent;
}

ParentScope::~ParentScope() { t_current_span = saved_; }

void Span::begin(const char* name) {
  name_ = name;
  if (traced_) {
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_current_span;
    t_current_span = id_;
    if (profile::enabled())
      cpu_start_ns_ = static_cast<std::int64_t>(profile::thread_cpu_ns());
  }
  start_ns_ = now_ns();
}

void Span::end() {
  const std::uint64_t dur = now_ns() - start_ns_;
  if (hist_ != nullptr) hist_->record_ms(static_cast<double>(dur) / 1e6);
  if (!traced_) return;
  t_current_span = parent_;
  Event e;
  e.name = name_;
  e.detail = std::move(detail_);
  e.id = id_;
  e.parent = parent_;
  e.start_ns = start_ns_;
  e.dur_ns = dur;
  if (cpu_start_ns_ >= 0)
    e.cpu_ns = static_cast<std::int64_t>(profile::thread_cpu_ns()) -
               cpu_start_ns_;
  ThreadBuffer& buf = buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

void instant(const char* name) {
  if (!enabled()) return;
  Event e;
  e.name = name;
  e.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  e.parent = t_current_span;
  e.start_ns = now_ns();
  e.dur_ns = 0;
  ThreadBuffer& buf = buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

std::uint64_t timestamp_ns() noexcept { return now_ns(); }

void counter_at(const char* name, std::uint64_t ts_ns, double value) {
  if (!enabled()) return;
  Event e;
  e.name = name;
  e.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  e.start_ns = ts_ns;
  e.is_counter = true;
  e.value = value;
  ThreadBuffer& buf = buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

std::vector<Event> snapshot_for_testing() {
  std::vector<Event> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers)
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.id < b.id;
  });
  return out;
}

std::string render_json() {
  // Thread names are emitted as "M" metadata rows so Perfetto labels the
  // tracks; worker threads are the pool's, everything else is "main-N".
  std::vector<std::pair<std::uint32_t, bool>> threads;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    threads.reserve(r.buffers.size());
    for (const auto& buf : r.buffers)
      threads.emplace_back(buf->tid, buf->worker);
  }
  const auto events = snapshot_for_testing();

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto emit = [&](const std::string& row) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += row;
  };
  emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
       "\"args\": {\"name\": \"longtail\"}}");
  for (const auto& [tid, worker] : threads) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s-%u\"}}",
                  tid, worker ? "worker" : "main", tid);
    emit(row);
  }
  for (const auto& e : events) {
    std::string row = "{\"name\": \"";
    json::append_escaped(row, e.name);
    char mid[192];
    if (e.is_counter) {
      std::snprintf(mid, sizeof(mid),
                    "\", \"cat\": \"longtail\", \"ph\": \"C\", "
                    "\"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
                    "\"args\": {\"value\": %.6g}}",
                    static_cast<double>(e.start_ns) / 1000.0, e.tid, e.value);
      row += mid;
      emit(row);
      continue;
    }
    std::snprintf(mid, sizeof(mid),
                  "\", \"cat\": \"longtail\", \"ph\": \"%s\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu",
                  e.dur_ns == 0 ? "i" : "X",
                  static_cast<double>(e.start_ns) / 1000.0,
                  static_cast<double>(e.dur_ns) / 1000.0, e.tid,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent));
    row += mid;
    if (e.cpu_ns >= 0) {
      char cpu[48];
      std::snprintf(cpu, sizeof(cpu), ", \"cpu_ms\": %.3f",
                    static_cast<double>(e.cpu_ns) / 1e6);
      row += cpu;
    }
    if (!e.detail.empty()) {
      row += ", \"detail\": \"";
      json::append_escaped(row, e.detail);
      row += "\"";
    }
    row += "}}";
    emit(row);
  }
  out += "\n]}\n";
  return out;
}

bool flush() {
  std::string path;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    path = r.path;
  }
  if (path.empty()) return false;
  const std::string json = render_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[longtail] cannot write trace %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[longtail] wrote trace %s (%zu events)\n",
               path.c_str(), snapshot_for_testing().size());
  return true;
}

void reset_for_testing() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& buf : r.buffers) buf->events.clear();
}

}  // namespace longtail::util::trace

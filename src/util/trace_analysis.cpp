#include "util/trace_analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace longtail::util::trace_analysis {

namespace {

struct SpanRec {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
  double start_ms = 0;
  double dur_ms = 0;
  double cpu_ms = -1;
  std::vector<std::size_t> children;  // indices, sorted by start

  [[nodiscard]] double end_ms() const { return start_ms + dur_ms; }
};

// Busy time for the efficiency formula: the span's own duration plus all
// pool.task spans anywhere below it (workers never nest pool.task inside
// pool.task, so each worker slice is counted exactly once).
double subtree_pool_busy(const std::vector<SpanRec>& spans, std::size_t i) {
  double busy = 0;
  for (const std::size_t c : spans[i].children) {
    if (spans[c].name == "pool.task") busy += spans[c].dur_ms;
    busy += subtree_pool_busy(spans, c);
  }
  return busy;
}

json::Object to_json(const CritStep& s) {
  return json::Object()
      .field("name", s.name)
      .field("tid", s.tid)
      .field("start_ms", s.start_ms)
      .field("dur_ms", s.dur_ms)
      .field("tail_ms", s.tail_ms);
}

json::Object to_json(const NameStat& s) {
  json::Object o;
  o.field("name", s.name)
      .field("count", s.count)
      .field("total_ms", s.total_ms)
      .field("self_ms", s.self_ms)
      .field("max_ms", s.max_ms);
  if (s.cpu_ms >= 0) o.field("cpu_ms", s.cpu_ms);
  return o;
}

json::Object to_json(const PhaseStat& p) {
  return json::Object()
      .field("name", p.name)
      .field("start_ms", p.start_ms)
      .field("wall_ms", p.wall_ms)
      .field("busy_ms", p.busy_ms)
      .field("efficiency", p.efficiency);
}

json::Object to_json(const CounterStat& c) {
  return json::Object()
      .field("name", c.name)
      .field("samples", c.samples)
      .field("min", c.min)
      .field("max", c.max)
      .field("last", c.last);
}

template <typename T>
std::string array_of(const std::vector<T>& items) {
  std::string out = "[";
  for (const T& item : items) {
    if (out.size() > 1) out += ", ";
    out += to_json(item).str();
  }
  return out + "]";
}

}  // namespace

Report analyze(std::string_view trace_json, std::size_t top_n) {
  const json::Value doc = json::parse(trace_json);
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != json::Value::kArr)
    throw std::runtime_error("trace JSON: no traceEvents array");

  Report report;
  std::vector<SpanRec> spans;
  std::map<std::string, CounterStat> counters;

  for (const json::Value& e : events->arr) {
    if (e.kind != json::Value::kObj) continue;
    const json::Value* ph = e.find("ph");
    const json::Value* name = e.find("name");
    if (ph == nullptr || name == nullptr) continue;
    const std::string_view kind = ph->str_or("");
    const json::Value* args = e.find("args");
    if (kind == "M") {
      if (name->str_or("") == "thread_name" && args != nullptr) {
        ++report.thread_count;
        const json::Value* tname = args->find("name");
        if (tname != nullptr && tname->str_or("").substr(0, 6) == "worker")
          ++report.worker_count;
      }
      continue;
    }
    if (kind == "C") {
      const double v =
          args != nullptr && args->find("value") != nullptr
              ? args->find("value")->num_or(0)
              : 0;
      auto [it, fresh] =
          counters.try_emplace(std::string(name->str_or("")), CounterStat{});
      CounterStat& c = it->second;
      if (fresh) {
        c.name = name->str_or("");
        c.min = c.max = v;
      }
      c.min = std::min(c.min, v);
      c.max = std::max(c.max, v);
      c.last = v;  // events arrive sorted by ts
      ++c.samples;
      continue;
    }
    if (kind != "X") continue;  // instants don't carry duration
    SpanRec s;
    s.name = name->str_or("");
    const json::Value* ts = e.find("ts");
    const json::Value* dur = e.find("dur");
    const json::Value* tid = e.find("tid");
    s.start_ms = (ts != nullptr ? ts->num_or(0) : 0) / 1000.0;
    s.dur_ms = (dur != nullptr ? dur->num_or(0) : 0) / 1000.0;
    s.tid = tid != nullptr ? static_cast<std::uint32_t>(tid->num_or(0)) : 0;
    if (args != nullptr) {
      if (const json::Value* id = args->find("id"))
        s.id = static_cast<std::uint64_t>(id->num_or(0));
      if (const json::Value* parent = args->find("parent"))
        s.parent = static_cast<std::uint64_t>(parent->num_or(0));
      if (const json::Value* cpu = args->find("cpu_ms"))
        s.cpu_ms = cpu->num_or(-1);
    }
    spans.push_back(std::move(s));
  }
  report.span_count = spans.size();
  if (spans.empty()) return report;

  // Index by span id and wire up the tree; spans whose parent id is
  // missing from the trace count as top-level.
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].id != 0) by_id[spans[i].id] = i;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (spans[i].parent != 0 && it != by_id.end() && it->second != i)
      spans[it->second].children.push_back(i);
    else
      roots.push_back(i);
  }
  auto by_start = [&](std::size_t a, std::size_t b) {
    return spans[a].start_ms < spans[b].start_ms;
  };
  for (auto& s : spans)
    std::sort(s.children.begin(), s.children.end(), by_start);
  std::sort(roots.begin(), roots.end(), by_start);

  double first = spans[roots.front()].start_ms;
  double last = 0;
  for (const auto& s : spans) {
    first = std::min(first, s.start_ms);
    last = std::max(last, s.end_ms());
  }
  report.wall_ms = last - first;

  // Critical path: from the virtual root, repeatedly descend into the
  // child that finishes last — the span whose completion gated everything
  // after it.
  auto latest = [&](const std::vector<std::size_t>& candidates) {
    std::size_t pick = candidates.front();
    for (const std::size_t c : candidates)
      if (spans[c].end_ms() > spans[pick].end_ms()) pick = c;
    return pick;
  };
  for (const std::vector<std::size_t>* level = &roots; !level->empty();) {
    const std::size_t i = latest(*level);
    const SpanRec& s = spans[i];
    CritStep step;
    step.name = s.name;
    step.tid = s.tid;
    step.start_ms = s.start_ms;
    step.dur_ms = s.dur_ms;
    double last_child_end = s.start_ms;
    for (const std::size_t c : s.children)
      last_child_end = std::max(last_child_end, spans[c].end_ms());
    step.tail_ms = std::max(0.0, s.end_ms() - last_child_end);
    report.critical_path.push_back(std::move(step));
    level = &s.children;
  }

  // Self vs total time per name.
  std::map<std::string, NameStat> stats;
  for (const auto& s : spans) {
    auto [it, fresh] = stats.try_emplace(s.name, NameStat{});
    NameStat& st = it->second;
    if (fresh) st.name = s.name;
    ++st.count;
    st.total_ms += s.dur_ms;
    st.max_ms = std::max(st.max_ms, s.dur_ms);
    double children_ms = 0;
    for (const std::size_t c : s.children) children_ms += spans[c].dur_ms;
    st.self_ms += std::max(0.0, s.dur_ms - children_ms);
    if (s.cpu_ms >= 0) st.cpu_ms = std::max(0.0, st.cpu_ms) + s.cpu_ms;
  }
  report.hotspots.reserve(stats.size());
  for (auto& [n, st] : stats) report.hotspots.push_back(std::move(st));
  std::sort(report.hotspots.begin(), report.hotspots.end(),
            [](const NameStat& a, const NameStat& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;
            });
  if (report.hotspots.size() > top_n) report.hotspots.resize(top_n);

  // Per-phase parallel efficiency over the top-level spans.
  const unsigned lanes = report.worker_count + 1;
  for (const std::size_t r : roots) {
    const SpanRec& s = spans[r];
    if (s.name == "pool.task") continue;  // orphaned worker slice
    PhaseStat phase;
    phase.name = s.name;
    phase.start_ms = s.start_ms;
    phase.wall_ms = s.dur_ms;
    phase.busy_ms = s.dur_ms + subtree_pool_busy(spans, r);
    phase.efficiency =
        s.dur_ms > 0
            ? phase.busy_ms / (phase.wall_ms * static_cast<double>(lanes))
            : 0;
    report.phases.push_back(std::move(phase));
  }

  report.counters.reserve(counters.size());
  for (auto& [n, c] : counters) report.counters.push_back(std::move(c));
  return report;
}

std::string render_markdown(const Report& r) {
  std::string out = "# Trace report\n\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "- %llu spans on %u threads (%u pool workers)\n"
                "- wall time: %.3f ms\n\n",
                static_cast<unsigned long long>(r.span_count), r.thread_count,
                r.worker_count, r.wall_ms);
  out += line;

  out += "## Critical path\n\n"
         "| # | span | tid | start ms | dur ms | tail ms |\n"
         "|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const CritStep& s = r.critical_path[i];
    std::snprintf(line, sizeof(line),
                  "| %zu | %s | %u | %.3f | %.3f | %.3f |\n", i + 1,
                  s.name.c_str(), s.tid, s.start_ms, s.dur_ms, s.tail_ms);
    out += line;
  }

  out += "\n## Hotspots by self time\n\n"
         "| span | count | total ms | self ms | max ms | cpu ms | cpu/total |\n"
         "|---|---|---|---|---|---|---|\n";
  for (const NameStat& s : r.hotspots) {
    char cpu[32] = "-";
    char ratio[32] = "-";
    if (s.cpu_ms >= 0) {
      std::snprintf(cpu, sizeof(cpu), "%.3f", s.cpu_ms);
      std::snprintf(ratio, sizeof(ratio), "%.2f",
                    s.total_ms > 0 ? s.cpu_ms / s.total_ms : 0.0);
    }
    std::snprintf(line, sizeof(line),
                  "| %s | %llu | %.3f | %.3f | %.3f | %s | %s |\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms, s.max_ms, cpu, ratio);
    out += line;
  }

  out += "\n## Phases (parallel efficiency)\n\n"
         "| phase | start ms | wall ms | busy ms | efficiency |\n"
         "|---|---|---|---|---|\n";
  for (const PhaseStat& p : r.phases) {
    std::snprintf(line, sizeof(line), "| %s | %.3f | %.3f | %.3f | %.2f |\n",
                  p.name.c_str(), p.start_ms, p.wall_ms, p.busy_ms,
                  p.efficiency);
    out += line;
  }

  if (!r.counters.empty()) {
    out += "\n## Counters\n\n"
           "| counter | samples | min | max | last |\n"
           "|---|---|---|---|---|\n";
    for (const CounterStat& c : r.counters) {
      std::snprintf(line, sizeof(line),
                    "| %s | %llu | %.6g | %.6g | %.6g |\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.samples), c.min, c.max,
                    c.last);
      out += line;
    }
  }
  return out;
}

std::string render_json(const Report& r) {
  return json::Object()
      .field("spans", r.span_count)
      .field("threads", r.thread_count)
      .field("workers", r.worker_count)
      .field("wall_ms", r.wall_ms)
      .raw("critical_path", array_of(r.critical_path))
      .raw("hotspots", array_of(r.hotspots))
      .raw("phases", array_of(r.phases))
      .raw("counters", array_of(r.counters))
      .str();
}

}  // namespace longtail::util::trace_analysis

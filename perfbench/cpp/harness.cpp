#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "support/json.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void Outcome::fail_check(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in the order and with the units BENCHMARK.json lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
    {"ok_ratio", "ratio"},      {"peak_rss_mb", "MiB"},
    {"rca_hits", "count"},      {"search_space_nodes", "nodes"},
};

constexpr MetricDef kPerLayer[] = {
    {"model.load_ms", "ms"},
    {"model.ensemble_ms", "ms"},
    {"model.experiment_set_ms", "ms"},
    {"model.coverage_run_ms", "ms"},
    {"model.run_ms", "ms"},
    {"model.runs", "count"},
    {"model.timesteps", "count"},
    {"engine.sampler_ms", "ms"},
    {"engine.refine_ms", "ms"},
    {"engine.refine_self_ms", "ms"},
    {"refinement.iterations", "count"},
    {"ect.fit_ms", "ms"},
    {"ect.evaluate_ms", "ms"},
    {"stats.lasso_ms", "ms"},
    {"stats.median_rank_ms", "ms"},
    {"stats.lasso.iterations", "count"},
    {"meta.build_ms", "ms"},
    {"meta.nodes", "nodes"},
    {"slice.backward_ms", "ms"},
    {"slice.nodes", "nodes"},
    {"graph.betweenness.sweeps", "count"},
    {"graph.gn.edges_removed", "count"},
    {"score.rank_ms", "ms"},
    {"service.build_p50_ms", "ms"},
    {"service.build_p99_ms", "ms"},
    {"service.slice_p50_ms", "ms"},
    {"service.slice_p99_ms", "ms"},
    {"service.rank_eigen_p50_ms", "ms"},
    {"service.rank_eigen_p99_ms", "ms"},
    {"service.rank_betweenness_p50_ms", "ms"},
    {"service.rank_betweenness_p99_ms", "ms"},
    {"service.louvain_p50_ms", "ms"},
    {"service.louvain_p99_ms", "ms"},
    {"service.lint_p50_ms", "ms"},
    {"service.lint_p99_ms", "ms"},
    {"service.patch_p50_ms", "ms"},
    {"service.patch_p99_ms", "ms"},
    {"service.status_429", "count"},
    {"service.status_504", "count"},
    {"service.session.parses", "count"},
    {"service.cold_build_ms", "ms"},
    {"http.hop_ms", "ms"},
    {"obs.spans_retained", "count"},
    {"obs.metrics_bytes", "bytes"},
    {"run.cpu_per_wall", "ratio"},
    {"trace.wall_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.unattributed_pct", "%"},
    {"trace.model_share_pct", "%"},
};

}  // namespace

void Outcome::emit(const Values& values, bool per_layer) {
  metrics.clear();
  auto put = [&](const MetricDef& def) {
    const auto it = values.find(def.name);
    metrics.push_back(
        Metric{def.name, it == values.end() ? 0.0 : it->second, def.unit});
  };
  if (per_layer) {
    for (const MetricDef& def : kPerLayer) put(def);
  } else {
    for (const MetricDef& def : kEndToEnd) put(def);
  }
}

double ok_ratio(const Outcome& out) {
  if (out.attempted == 0) return 0.0;
  return 1.0 - static_cast<double>(out.failed) /
                   static_cast<double>(out.attempted);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double obs_counter(const char* name) {
  return static_cast<double>(rca::obs::global().counter(name));
}

// -- Trace ------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint32_t> open_spans;
}  // namespace

Trace::Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Trace::Scope::Scope(Trace* trace, const char* name, std::uint32_t parent)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  id_ = trace_->open(name, parent, Clock::now());
  open_ = true;
}

Trace::Scope::~Scope() { end(); }

void Trace::Scope::end() {
  if (!open_) return;
  open_ = false;
  trace_->close(id_, Clock::now());
}

std::uint32_t Trace::open(const char* name, std::uint32_t parent,
                          Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.id = static_cast<std::uint32_t>(records_.size() + 1);
  if (parent == kInnermost) {
    parent = open_spans.empty() ? 0 : open_spans.back();
  }
  r.parent = parent;
  r.name = name;
  r.start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  r.end_us = -1.0;
  records_.push_back(std::move(r));
  open_spans.push_back(records_.back().id);
  return records_.back().id;
}

void Trace::close(std::uint32_t id, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[id - 1].end_us =
      std::chrono::duration<double, std::micro>(end - epoch_).count();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::map<std::string, double> Trace::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Record& r : records_) {
    if (r.end_us >= 0.0) out[r.name] += (r.end_us - r.start_us) / 1000.0;
  }
  return out;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double covered_us(std::vector<std::pair<double, double>> intervals, double lo,
                  double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  for (const auto& [s, e] : intervals) {
    const double cs = std::max(s, lo);
    const double ce = std::min(e, hi);
    if (ce <= cs) continue;
    if (cs > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = cs;
      cur_end = ce;
    } else {
      cur_end = std::max(cur_end, ce);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

std::map<std::string, double> Trace::self_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(
      records_.size() + 1);
  for (const Record& r : records_) {
    if (r.parent != 0 && r.end_us >= 0.0) {
      children[r.parent].emplace_back(r.start_us, r.end_us);
    }
  }
  std::map<std::string, double> out;
  for (const Record& r : records_) {
    if (r.end_us < 0.0) continue;
    const double covered = covered_us(children[r.id], r.start_us, r.end_us);
    out[r.name] += (r.end_us - r.start_us - covered) / 1000.0;
  }
  return out;
}

std::map<std::string, double> Trace::attributed_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::uint32_t>> children(records_.size() + 1);
  for (const Record& r : records_) {
    if (r.parent != 0 && r.end_us >= 0.0) children[r.parent].push_back(r.id);
  }
  std::map<std::string, double> out;
  // Depth-first with an explicit stack of (span id, scale).
  std::vector<std::pair<std::uint32_t, double>> stack;
  for (const Record& r : records_) {
    if (r.parent == 0 && r.end_us >= 0.0) stack.emplace_back(r.id, 1.0);
  }
  while (!stack.empty()) {
    const auto [id, scale] = stack.back();
    stack.pop_back();
    const Record& r = records_[id - 1];
    std::vector<std::pair<double, double>> intervals;
    double child_sum = 0.0;
    for (std::uint32_t c : children[id]) {
      const Record& k = records_[c - 1];
      intervals.emplace_back(k.start_us, k.end_us);
      child_sum += k.end_us - k.start_us;
    }
    const double covered = covered_us(intervals, r.start_us, r.end_us);
    out[r.name] += scale * (r.end_us - r.start_us - covered) / 1000.0;
    if (child_sum > 0.0) {
      for (std::uint32_t c : children[id]) {
        stack.emplace_back(c, scale * covered / child_sum);
      }
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> Trace::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const Record& r : records_) ++out[r.name];
  return out;
}

double Trace::root_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.parent == 0 && r.end_us >= 0.0) {
      total += (r.end_us - r.start_us) / 1000.0;
    }
  }
  return total;
}

void Trace::write_json(const std::string& path) const {
  rca::JsonWriter w;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.begin_object();
    w.key("schema");
    w.string_value("perfbench.trace.v1");
    w.key("spans");
    w.begin_array();
    for (const Record& r : records_) {
      w.begin_object();
      w.key("id");
      w.integer(r.id);
      w.key("parent");
      w.integer(r.parent);
      w.key("name");
      w.string_value(r.name);
      w.key("start_us");
      w.number(r.start_us);
      w.key("end_us");
      w.number(r.end_us);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
}

void account_trace(const Trace& trace, double wall_ms, Values& values) {
  const std::map<std::string, double> attributed = trace.attributed_ms();
  const std::map<std::string, std::uint64_t> counts = trace.counts();
  std::vector<std::pair<double, std::string>> rows;
  double total = 0.0;
  double model = 0.0;
  for (const auto& [name, ms] : attributed) {
    rows.emplace_back(ms, name);
    total += ms;
    if (name.rfind("model.", 0) == 0) model += ms;
  }
  std::sort(rows.rbegin(), rows.rend());
  auto share = [&](double ms) { return wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0; };
  std::fprintf(stderr, "%-26s %8s %12s %7s\n", "span (self time)", "count",
               "ms", "share");
  for (const auto& [ms, name] : rows) {
    std::fprintf(stderr, "%-26s %8llu %12.1f %6.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(counts.at(name)), ms,
                 share(ms));
  }
  std::fprintf(stderr, "%-26s %8s %12.1f %6.1f%%\n", "(unattributed)", "-",
               wall_ms - total, share(wall_ms - total));
  std::fprintf(stderr, "%-26s %8s %12.1f\n", "traced wall", "-", wall_ms);
  values["trace.wall_ms"] = wall_ms;
  values["trace.unattributed_pct"] = share(wall_ms - total);
  values["trace.model_share_pct"] = share(model);
}

}  // namespace perfbench

// Shared pieces of the end-to-end benchmark: options, the result document,
// the benchmark-side span recorder used by traced runs, and small
// measurement helpers (percentiles, peak RSS, process CPU time, obs
// counters).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);

/// Corpus-generator seed (model::CorpusSpec::seed), pinned to the CLI
/// default: varying it moves search_space_nodes by about a quarter, far
/// beyond any useful bound, so the workload seed does not touch it.
constexpr std::uint64_t kCorpusSeed = 2019;

struct Options {
  std::string workload;
  /// Workload seed: drives the order of operations and the request stream.
  std::uint64_t seed = 2019;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced-size configuration for the benchmark's own tests.
  bool smoke = false;
  /// Scratch directory (inside the checkout) for corpora and trace files.
  std::string work_dir = ".bench_build/work";
  /// Directory holding the expected documents kept with the benchmark
  /// (relative to the repository root, where the benchmark runs).
  std::string expected_dir = "perfbench/expected";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Measured values by metric name, before they are put in canonical order.
using Values = std::map<std::string, double>;

/// What one workload run produced. `metrics` is the end-to-end set for an
/// untraced run and the per-layer set for a traced run.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a failed correctness check (printed to stderr).
  void fail_check(const std::string& what);
  /// Counts one operation; `ok` false counts it as failed.
  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Fills `metrics` with every end-to-end metric (untraced run) or every
  /// per-layer metric (traced run), in the order BENCHMARK.json lists them.
  /// A metric the workload does not exercise reads 0.
  void emit(const Values& values, bool per_layer);
};

/// 1 - failed / attempted.
double ok_ratio(const Outcome& out);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds();
/// Current value of an obs counter (0 when obs is off or never counted).
double obs_counter(const char* name);

/// Benchmark-side trace: spans recorded around calls into the program's
/// modules, kept in memory and written out when the run ends. A span's
/// parent is the innermost open span on the same thread.
class Trace {
 public:
  struct Record {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Trace* trace, const char* name, std::uint32_t parent);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    /// Closes the span now (the destructor then does nothing).
    void end();
    /// Span id, for spans opened on other threads (0 when disabled).
    std::uint32_t id() const { return id_; }

   private:
    Trace* trace_;
    std::uint32_t id_ = 0;
    bool open_ = false;
  };

  explicit Trace(bool enabled);

  Scope span(const char* name) {
    return Scope(enabled_ ? this : nullptr, name, kInnermost);
  }
  /// A span with an explicit parent, for work another thread runs on behalf
  /// of an open span.
  Scope span_under(const char* name, std::uint32_t parent) {
    return Scope(enabled_ ? this : nullptr, name, parent);
  }

  /// Sum of span durations per name, in ms.
  std::map<std::string, double> total_ms() const;
  /// Per name: duration minus the part of it covered by child spans, in ms.
  std::map<std::string, double> self_ms() const;
  std::map<std::string, std::uint64_t> counts() const;
  /// Wall time covered by root spans, in ms.
  double root_ms() const;
  /// Splits the root spans' wall time among span names: each span keeps
  /// its self time, and the time its children cover is shared among them in
  /// proportion to their durations (children run in parallel on pool
  /// threads). The values sum to root_ms().
  std::map<std::string, double> attributed_ms() const;

  /// Writes every span as one JSON document (name, start, end, parent).
  void write_json(const std::string& path) const;

 private:
  static constexpr std::uint32_t kInnermost = UINT32_MAX;

  std::uint32_t open(const char* name, std::uint32_t parent,
                     Clock::time_point start);
  void close(std::uint32_t id, Clock::time_point end);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Prints each span name's attributed time and share of `wall_ms` to
/// stderr, with the unattributed remainder, and records the accounting in
/// `values`: trace.wall_ms, trace.unattributed_pct and
/// trace.model_share_pct (the model.* spans' share).
void account_trace(const Trace& trace, double wall_ms, Values& values);

Outcome run_paper_analyze(const Options& opts);
Outcome run_scenario_runtime(const Options& opts);
Outcome run_resident_query(const Options& opts);

}  // namespace perfbench

// Shared helpers for the bench/ harnesses.
//
// Every table/figure binary regenerates one table or figure of the paper
// and prints (a) our measured values and (b) the paper's reported values
// for shape comparison. Absolute numbers differ by design: the substrate is
// a scaled synthetic model, not CESM on Cheyenne (see DESIGN.md §2).
//
// The perf binaries (perf_graph, perf_parse, perf_service) share the
// timing, calibration and rca.bench_graph.v1 trajectory writer below;
// tools/bench_diff.cmake diffs their output against the committed
// BENCH_*.json baselines.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "graph/betweenness.hpp"
#include "graph/ugraph.hpp"
#include "model/scenario.hpp"
#include "stats/descriptive.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace rca::bench {

/// Standard pipeline configuration for the experiment harnesses.
inline engine::PipelineConfig default_config() {
  engine::PipelineConfig config;
  config.ensemble_members = 40;
  config.experimental_runs = 12;
  return config;
}

/// One-line header with the paper reference.
inline void banner(const std::string& artifact, const std::string& summary) {
  std::printf("=== %s ===\n", artifact.c_str());
  std::printf("%s\n\n", summary.c_str());
}

/// Prints an iteration trace in the style of the paper's figure captions.
inline void print_refinement_trace(const meta::Metagraph& mg,
                                   const engine::RefinementResult& result,
                                   std::size_t show_sampled = 10) {
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& iter = result.iterations[i];
    std::printf("iteration %zu: subgraph %zu nodes / %zu edges, %zu communities",
                i + 1, iter.subgraph_nodes, iter.subgraph_edges,
                iter.communities.size());
    std::printf(" (sizes:");
    for (const auto& c : iter.communities) std::printf(" %zu", c.members.size());
    std::printf("), %s\n", iter.detected
                               ? "difference DETECTED -> step 8b"
                               : "no difference -> step 8a");
    for (std::size_t c = 0; c < iter.communities.size(); ++c) {
      const auto& comm = iter.communities[c];
      std::printf("  community %zu (%zu nodes): sampled", c,
                  comm.members.size());
      for (std::size_t k = 0; k < comm.sampled.size() && k < show_sampled; ++k) {
        std::printf(" %s(%.4f)", mg.info(comm.sampled[k]).unique_name.c_str(),
                    comm.sampled_centrality[k]);
      }
      std::printf(" | differing: %zu\n", comm.differing.size());
    }
  }
  std::printf("final subgraph: %zu nodes%s\n", result.final_nodes.size(),
              result.stalled ? " (stalled: static fixed point, needs value "
                               "magnitudes — paper issue 1)"
                             : "");
  if (result.first_detection_at) {
    std::printf("first detection at iteration %zu\n", result.first_detection_at);
  }
  if (result.bug_instrumented_at) {
    std::printf("bug site instrumented at iteration %zu\n",
                result.bug_instrumented_at);
  }
}

/// True if any ground-truth bug node is inside `nodes` (thin alias for the
/// scenario-library helper, so every harness scores with one implementation).
inline bool contains_bug(const std::vector<graph::NodeId>& nodes,
                         const std::vector<graph::NodeId>& bugs) {
  return model::contains_any(nodes, bugs);
}

inline void print_selection(const engine::ExperimentOutcome& outcome) {
  std::printf("lasso-selected outputs:");
  for (const auto& s : outcome.lasso_selected) std::printf(" %s", s.c_str());
  std::printf("\nmedian-distance top 5:");
  for (std::size_t k = 0; k < 5 && k < outcome.median_ranked.size(); ++k) {
    std::printf(" %s(%.3g%s)", outcome.median_ranked[k].name.c_str(),
                outcome.median_ranked[k].median_distance,
                outcome.median_ranked[k].iqr_disjoint ? "*" : "");
  }
  std::printf("\nslicing criteria:");
  for (const auto& s : outcome.criteria_outputs) std::printf(" %s", s.c_str());
  std::printf("\ninternal names:");
  for (const auto& s : outcome.internal_names) std::printf(" %s", s.c_str());
  std::printf("\n");
}

/// Wall time of one call of `fn`, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Fixed serial workload every trajectory is normalized by: the median of
/// five exact edge-betweenness runs on a deterministic 600-node
/// preferential-attachment graph. One workload for all BENCH_*.json files
/// keeps their `normalized` values in the same runner-independent unit.
inline double calibration_ms() {
  SplitMix64 rng(7);
  graph::Digraph g(1);
  std::vector<graph::NodeId> pool = {0};
  for (graph::NodeId v = 1; v < 600; ++v) {
    g.add_nodes(1);
    for (std::size_t e = 0; e < 2; ++e) {
      const graph::NodeId t = pool[rng.next() % pool.size()];
      if (t != v && g.add_edge(v, t)) {
        pool.push_back(t);
        pool.push_back(v);
      }
    }
  }
  const graph::UGraph ug(g);
  std::vector<double> times;
  for (int r = 0; r < 5; ++r) {
    times.push_back(time_ms([&] { (void)graph::edge_betweenness(ug); }));
  }
  return stats::median(times);
}

struct BenchFixture {
  std::string name;
  long long nodes = 0;
  long long edges = 0;
};

struct BenchKernel {
  std::string name;
  double median_ms = 0.0;
};

/// One rca.bench_graph.v1 trajectory document.
struct BenchTrajectory {
  /// Run parameters, written only when set.
  std::optional<long long> samples;
  std::optional<long long> repeats;
  double calibration_ms = 0.0;
  std::vector<BenchFixture> fixtures;
  std::vector<BenchKernel> kernels;
  /// Writes the members of the "gates" object.
  std::function<void(JsonWriter&)> gates;
};

/// Writes `doc` to `path`; every kernel's `normalized` value is its median
/// divided by the calibration time.
inline void write_trajectory(const std::string& path,
                             const BenchTrajectory& doc) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.bench_graph.v1");
  if (doc.samples) {
    w.key("samples");
    w.integer(*doc.samples);
  }
  if (doc.repeats) {
    w.key("repeats");
    w.integer(*doc.repeats);
  }
  w.key("calibration_ms");
  w.number(doc.calibration_ms);
  w.key("fixtures");
  w.begin_object();
  for (const BenchFixture& f : doc.fixtures) {
    w.key(f.name);
    w.begin_object();
    w.key("nodes");
    w.integer(f.nodes);
    w.key("edges");
    w.integer(f.edges);
    w.end_object();
  }
  w.end_object();
  w.key("kernels");
  w.begin_object();
  for (const BenchKernel& k : doc.kernels) {
    w.key(k.name);
    w.begin_object();
    w.key("median_ms");
    w.number(k.median_ms);
    w.key("normalized");
    w.number(doc.calibration_ms > 0.0 ? k.median_ms / doc.calibration_ms
                                      : 0.0);
    w.end_object();
  }
  w.end_object();
  w.key("gates");
  w.begin_object();
  doc.gates(w);
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace rca::bench

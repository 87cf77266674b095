// The method table for Algorithm 5.4's two interchangeable steps: node
// ranking (step 6, eigenvector in-centrality in the paper) and community
// detection (step 5, Girvan–Newman with Louvain as the near-linear
// alternative). Every caller — rca-tool, the service router, the
// refinement engine, campaigns and the ablation benches — names a method
// through this table, so a new method is one more row here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "support/thread_pool.hpp"

namespace rca::graph {

/// Node rankings. All rank by incoming influence ("information sinks")
/// except kBetweenness (directed node betweenness) and kInOutEigenvector
/// (in- plus out-eigenvector centrality).
enum class CentralityKind {
  kEigenvector,
  kDegree,
  kPageRank,
  kKatz,
  kNonBacktracking,
  kCloseness,
  kBetweenness,
  kInOutEigenvector,
};

enum class CommunityMethod { kGirvanNewman, kLouvain };

/// Table names: "eigenvector", "degree", ..., and "gn", "louvain".
const char* centrality_name(CentralityKind kind);
const char* community_method_name(CommunityMethod method);

/// Every table name, '|'-joined in table order.
std::string centrality_names();
std::string community_method_names();

/// Name lookup; an unknown name throws rca::Error listing every valid one.
CentralityKind parse_centrality(std::string_view name);
CommunityMethod parse_community_method(std::string_view name);

struct CentralityOptions {
  /// Betweenness only: pivot-sample size (0 = exact) and its seed (see
  /// BetweennessOptions).
  std::size_t samples = 0;
  std::uint64_t seed = 2019;
};

std::vector<double> centrality(const Digraph& g, CentralityKind kind,
                               const CentralityOptions& opts = {});

struct CommunityOptions {
  CommunityMethod method = CommunityMethod::kGirvanNewman;
  /// Girvan–Newman split iterations.
  int iterations = 1;
  /// Smaller communities are dropped from the result.
  std::size_t min_size = 3;
  /// Girvan–Newman wall-clock budget; 0 = unlimited. On expiry the
  /// partition comes from Louvain instead (counter: community.fallback) —
  /// an approximate answer now beats an exact one after the caller gave up.
  long long budget_ms = 0;
  /// Girvan–Newman betweenness pivot sampling (0 = exact), seed and pool.
  std::size_t samples = 0;
  std::uint64_t seed = 2019;
  ThreadPool* pool = nullptr;
};

struct CommunityResult {
  /// Kept communities, largest first.
  std::vector<std::vector<NodeId>> communities;
  /// The method that produced `communities`: the requested one, or Louvain
  /// after a Girvan–Newman budget fallback.
  CommunityMethod method = CommunityMethod::kGirvanNewman;
  bool fell_back = false;
  /// Set when Girvan–Newman ran, even if it then fell back.
  std::optional<std::size_t> edges_removed;
  /// Undirected components Girvan–Newman left, below-threshold ones
  /// included (0 when it did not run).
  std::size_t component_count = 0;
  /// Set when Louvain produced the partition.
  std::optional<double> modularity;
};

CommunityResult communities(const Digraph& g, const CommunityOptions& opts);

}  // namespace rca::graph

#include "graph/methods.hpp"

#include <iterator>

#include "graph/betweenness.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "graph/nonbacktracking.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::graph {

namespace {

struct CentralityRow {
  const char* name;
  std::vector<double> (*rank)(const Digraph& g, const CentralityOptions& opts);
};

// Rows in CentralityKind order.
const CentralityRow kCentralities[] = {
    {"eigenvector",
     [](const Digraph& g, const CentralityOptions&) {
       return eigenvector_centrality(g, Direction::kIn);
     }},
    {"degree",
     [](const Digraph& g, const CentralityOptions&) {
       return degree_centrality(g, Direction::kIn);
     }},
    {"pagerank",
     [](const Digraph& g, const CentralityOptions&) {
       return pagerank(g, Direction::kIn);
     }},
    {"katz",
     [](const Digraph& g, const CentralityOptions&) {
       return katz_centrality(g, Direction::kIn);
     }},
    {"nonbacktracking",
     [](const Digraph& g, const CentralityOptions&) {
       return nonbacktracking_centrality(g, Direction::kIn).centrality;
     }},
    {"closeness",
     [](const Digraph& g, const CentralityOptions&) {
       return closeness_centrality(g, Direction::kIn);
     }},
    {"betweenness",
     [](const Digraph& g, const CentralityOptions& opts) {
       // O(V·E) exact; `samples` caps the Brandes sweeps at seeded pivots.
       BetweennessOptions bopts;
       bopts.samples = opts.samples;
       bopts.seed = opts.seed;
       return node_betweenness(g, bopts);
     }},
    {"inout-eigenvector",
     [](const Digraph& g, const CentralityOptions&) {
       std::vector<double> scores = eigenvector_centrality(g, Direction::kIn);
       const std::vector<double> out = eigenvector_centrality(g, Direction::kOut);
       for (std::size_t i = 0; i < scores.size(); ++i) scores[i] += out[i];
       return scores;
     }},
};
static_assert(std::size(kCentralities) ==
              static_cast<std::size_t>(CentralityKind::kInOutEigenvector) + 1);

// Names in CommunityMethod order.
const char* const kCommunityMethods[] = {"gn", "louvain"};
static_assert(std::size(kCommunityMethods) ==
              static_cast<std::size_t>(CommunityMethod::kLouvain) + 1);

const char* row_name(const CentralityRow& row) { return row.name; }
const char* row_name(const char* name) { return name; }

template <typename Row, std::size_t N>
std::string names_of(const Row (&rows)[N]) {
  std::string out;
  for (const Row& row : rows) {
    if (!out.empty()) out += '|';
    out += row_name(row);
  }
  return out;
}

template <typename Row, std::size_t N>
std::size_t index_of(const Row (&rows)[N], std::string_view name,
                     const char* what) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == row_name(rows[i])) return i;
  }
  throw Error("unknown " + std::string(what) + " '" + std::string(name) +
              "' (" + names_of(rows) + ")");
}

}  // namespace

const char* centrality_name(CentralityKind kind) {
  return kCentralities[static_cast<std::size_t>(kind)].name;
}

const char* community_method_name(CommunityMethod method) {
  return kCommunityMethods[static_cast<std::size_t>(method)];
}

std::string centrality_names() { return names_of(kCentralities); }

std::string community_method_names() { return names_of(kCommunityMethods); }

CentralityKind parse_centrality(std::string_view name) {
  return static_cast<CentralityKind>(
      index_of(kCentralities, name, "centrality kind"));
}

CommunityMethod parse_community_method(std::string_view name) {
  return static_cast<CommunityMethod>(
      index_of(kCommunityMethods, name, "community method"));
}

std::vector<double> centrality(const Digraph& g, CentralityKind kind,
                               const CentralityOptions& opts) {
  return kCentralities[static_cast<std::size_t>(kind)].rank(g, opts);
}

CommunityResult communities(const Digraph& g, const CommunityOptions& opts) {
  CommunityResult out;
  if (opts.method == CommunityMethod::kGirvanNewman) {
    GirvanNewmanOptions gn;
    gn.iterations = opts.iterations;
    gn.min_community_size = opts.min_size;
    gn.budget_ms = opts.budget_ms;
    gn.betweenness_samples = opts.samples;
    gn.betweenness_seed = opts.seed;
    gn.pool = opts.pool;
    GirvanNewmanResult result = girvan_newman(g, gn);
    out.edges_removed = result.edges_removed;
    out.component_count = result.component_count;
    if (!result.budget_exceeded) {
      out.communities = std::move(result.communities);
      return out;
    }
    obs::count("community.fallback");
    out.fell_back = true;
  }
  LouvainOptions lv;
  lv.min_community_size = opts.min_size;
  LouvainResult result = louvain(g, lv);
  out.communities = std::move(result.communities);
  out.method = CommunityMethod::kLouvain;
  out.modularity = result.modularity;
  return out;
}

}  // namespace rca::graph

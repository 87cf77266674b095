// Ablation: which centrality picks the best sampling sites?
//
// The paper chooses eigenvector in-centrality ("information sinks") and
// reports that Hashimoto non-backtracking centrality adds nothing (§5.3,
// supplementary §8.1). This bench scores eigenvector, degree, PageRank,
// Katz and non-backtracking in-centralities on the AVX2 experiment by how
// many KGen-flagged MG1 variables land in each community's top-10.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/centrality.hpp"
#include "graph/methods.hpp"

using namespace rca;

int main() {
  bench::banner("Ablation — centrality choice for sampling-site selection",
                "paper: eigenvector in-centrality; NBT no advantage; "
                "metric = flagged MG1 variables captured in top-10");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_experiment(model::ExperimentId::kAvx2);
  const meta::Metagraph& mg = pipe.metagraph();
  const graph::Digraph& sub = outcome.slice.subgraph;
  const auto& slice_nodes = outcome.slice.nodes;

  // Communities of the slice (as the engine would see them).
  graph::CommunityOptions copts;
  copts.min_size = 4;
  const graph::CommunityResult communities = graph::communities(sub, copts);

  std::vector<bool> flagged(mg.node_count(), false);
  for (graph::NodeId b : outcome.bug_nodes) flagged[b] = true;
  std::vector<bool> excluded(mg.node_count(), false);
  for (graph::NodeId t : outcome.slice.targets) excluded[t] = true;

  // Eigenvector (the paper's choice) first: the shape check reads row 0.
  const graph::CentralityKind kinds[] = {
      graph::CentralityKind::kEigenvector, graph::CentralityKind::kDegree,
      graph::CentralityKind::kPageRank, graph::CentralityKind::kKatz,
      graph::CentralityKind::kNonBacktracking};

  Table table("AVX2: flagged variables captured by top-10 sampling");
  table.set_header({"Centrality", "flagged captured", "dum ranked first"});
  std::vector<std::size_t> captured_by_kind;
  for (graph::CentralityKind kind : kinds) {
    std::size_t captured = 0;
    bool dum_first = false;
    for (const auto& members : communities.communities) {
      graph::Digraph comm = induced_subgraph(sub, members, nullptr);
      const auto centrality = graph::centrality(comm, kind);
      const auto ranked = graph::top_k(centrality, centrality.size());
      std::size_t taken = 0;
      bool first = true;
      for (graph::NodeId local : ranked) {
        if (taken >= 10) break;
        const graph::NodeId full = slice_nodes[members[local]];
        if (excluded[full]) continue;
        ++taken;
        if (flagged[full]) ++captured;
        if (first && mg.info(full).unique_name == "dum__micro_mg_tend") {
          dum_first = true;
        }
        first = false;
      }
    }
    captured_by_kind.push_back(captured);
    table.add_row({graph::centrality_name(kind),
                   Table::integer(static_cast<long long>(captured)),
                   dum_first ? "yes" : "no"});
  }
  table.print(std::cout);
  std::printf("\nflagged variables in slice: %zu\n", outcome.bug_nodes.size());

  const bool shape_holds = captured_by_kind[0] >= 2;
  std::printf("shape check (eigenvector captures flagged variables): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}

// Tests for the extended graph algorithms (Louvain/modularity, strongly
// connected components, closeness centrality) and the method table.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/betweenness.hpp"
#include "graph/bridges.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "graph/methods.hpp"
#include "graph/nonbacktracking.hpp"
#include "graph/scc.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rca::graph {
namespace {

Digraph two_cliques_with_bridge() {
  Digraph g(8);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  for (NodeId i = 4; i < 8; ++i) {
    for (NodeId j = i + 1; j < 8; ++j) g.add_edge(i, j);
  }
  g.add_edge(3, 4);
  return g;
}

TEST(Modularity, PerfectSplitBeatsTrivialPartitions) {
  Digraph g = two_cliques_with_bridge();
  const std::vector<NodeId> split = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<NodeId> all_one(8, 0);
  std::vector<NodeId> singletons(8);
  for (NodeId v = 0; v < 8; ++v) singletons[v] = v;

  const double q_split = modularity(g, split);
  EXPECT_GT(q_split, modularity(g, all_one));
  EXPECT_GT(q_split, modularity(g, singletons));
  EXPECT_NEAR(modularity(g, all_one), 0.0, 1e-12);
  EXPECT_GT(q_split, 0.3);
}

TEST(Louvain, RecoversTwoCliques) {
  Digraph g = two_cliques_with_bridge();
  LouvainResult result = louvain(g);
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].size(), 4u);
  EXPECT_EQ(result.communities[1].size(), 4u);
  // Each clique stays together.
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[0]);
  }
  for (NodeId v = 5; v < 8; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[4]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[4]);
  EXPECT_GT(result.modularity, 0.3);
}

TEST(Louvain, DeterministicPerSeed) {
  SplitMix64 rng(55);
  Digraph g(80);
  for (int e = 0; e < 200; ++e) {
    g.add_edge(static_cast<NodeId>(rng.next() % 80),
               static_cast<NodeId>(rng.next() % 80));
  }
  LouvainResult a = louvain(g);
  LouvainResult b = louvain(g);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(Louvain, EmptyAndSingletonGraphs) {
  Digraph empty;
  EXPECT_TRUE(louvain(empty).communities.empty());
  Digraph one(1);
  LouvainResult r = louvain(one);
  EXPECT_EQ(r.assignment.size(), 1u);
}

TEST(Louvain, MinCommunitySizeFilters) {
  Digraph g = two_cliques_with_bridge();
  g.add_nodes(2);
  g.add_edge(8, 9);  // isolated pair
  LouvainOptions opts;
  opts.min_community_size = 3;
  LouvainResult r = louvain(g, opts);
  for (const auto& c : r.communities) EXPECT_GE(c.size(), 3u);
}

TEST(Scc, DagIsAllSingletons) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 4u);
}

TEST(Scc, CycleCollapsesToOneComponent) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // 3-cycle
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);  // {0,1,2}, {3}, {4}
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_NE(scc.component[0], scc.component[3]);

  auto members = scc.members();
  std::size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, 5u);
}

TEST(Scc, CondensationIsAcyclic) {
  // Two cycles joined by an edge.
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  g.add_edge(1, 2);  // cycle A -> cycle B
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);  // {0,1}, {2,3,4}, {5}
  Digraph cond = condensation(g, scc);
  EXPECT_EQ(cond.node_count(), 3u);
  EXPECT_EQ(cond.edge_count(), 1u);
  // A DAG's SCCs are singletons.
  SccResult check = strongly_connected_components(cond);
  EXPECT_EQ(check.count, cond.node_count());
}

TEST(Scc, DeepChainDoesNotOverflow) {
  // 200k-node chain: a recursive Tarjan would blow the stack.
  const std::size_t n = 200000;
  Digraph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, n);
}

TEST(Closeness, CenterOfStarIsMostCentral) {
  // Star with edges into the hub: hub has max in-closeness.
  Digraph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(leaf, 0);
  auto c = closeness_centrality(g, Direction::kIn);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_GT(c[0], c[leaf]);
}

TEST(Closeness, PathGraphOrdering) {
  // 0 -> 1 -> 2: node 2 reaches everything along in-edges.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto cin = closeness_centrality(g, Direction::kIn);
  EXPECT_GT(cin[2], cin[1]);
  EXPECT_GT(cin[1], cin[0]);
  EXPECT_DOUBLE_EQ(cin[0], 0.0);  // nothing flows into node 0
  auto cout = closeness_centrality(g, Direction::kOut);
  EXPECT_GT(cout[0], cout[2]);
}

TEST(Closeness, DisconnectedGraphStaysFinite) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  auto c = closeness_centrality(g, Direction::kIn);
  for (double v : c) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}


TEST(Bridges, FindsTheCliqueBridge) {
  Digraph g = two_cliques_with_bridge();
  UGraph ug(g);
  auto bridges = find_bridges(ug);
  ASSERT_EQ(bridges.size(), 1u);
  const auto& e = ug.edge(bridges[0]);
  EXPECT_TRUE((e.u == 3 && e.v == 4) || (e.u == 4 && e.v == 3));
}

TEST(Bridges, TreeIsAllBridges) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  UGraph ug(g);
  EXPECT_EQ(find_bridges(ug).size(), 4u);
}

TEST(Bridges, CycleHasNone) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  UGraph ug(g);
  EXPECT_TRUE(find_bridges(ug).empty());
}

// UGraph assigns its own edge ids (by adjacency order, not digraph
// insertion order), so tests locate edges by their endpoints.
EdgeId edge_between(const UGraph& ug, NodeId u, NodeId v) {
  for (EdgeId e = 0; e < ug.total_edges(); ++e) {
    const auto& ed = ug.edge(e);
    if ((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u)) return e;
  }
  ADD_FAILURE() << "no edge " << u << "-" << v;
  return 0;
}

// Regression tests for the girvan_newman_step live-edge index: removal
// counts per step are pinned exactly, so a scan that revisits removed edges
// (or loses the lowest-id tie-break) changes these numbers.
TEST(GirvanNewmanStep, BridgeBetweenTrianglesGoesFirst) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 5);
  g.add_edge(2, 3);  // bridge: the unique max-betweenness edge
  UGraph ug(g);
  EXPECT_EQ(girvan_newman_step(ug), 1u);
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(ug.is_removed(edge_between(ug, 2, 3)));
}

TEST(GirvanNewmanStep, SixCycleNeedsExactlyTwoRemovals) {
  // All six edges tie on betweenness, so the lowest id (0-1) goes first.
  // That leaves the path 1-2-3-4-5-0, whose middle edge (3-4, id 3) is the
  // next unique maximum; removing it splits the graph and ends the step.
  Digraph g(6);
  for (NodeId v = 0; v < 6; ++v) g.add_edge(v, (v + 1) % 6);
  UGraph ug(g);
  EXPECT_EQ(girvan_newman_step(ug), 2u);
  EXPECT_TRUE(ug.is_removed(0));
  EXPECT_TRUE(ug.is_removed(3));
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
}

TEST(GirvanNewmanStep, SkipsEdgesRemovedBeforeTheStep) {
  // Pre-removing the bridge must keep it out of the live scan: the step then
  // splits one triangle (lowest-id edge, then one of the tied remainder).
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 5);
  g.add_edge(2, 3);
  UGraph ug(g);
  ug.remove_edge(edge_between(ug, 2, 3));  // the bridge
  EXPECT_EQ(girvan_newman_step(ug), 2u);
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 3u);
}

TEST(GirvanNewmanStep, RepeatedStepsKeepPeelingDeterministically) {
  Digraph g = two_cliques_with_bridge();
  UGraph ug(g);
  const std::size_t first = girvan_newman_step(ug);
  EXPECT_EQ(first, 1u);  // the bridge
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
  // A second step must make progress on the surviving cliques and produce
  // the same counts every run.
  UGraph replay(g);
  girvan_newman_step(replay);
  const std::size_t second = girvan_newman_step(ug);
  EXPECT_EQ(second, girvan_newman_step(replay));
  EXPECT_GE(second, 1u);
}

TEST(Bridges, RespectsRemovedEdges) {
  // Removing one cycle edge turns the rest into bridges.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  UGraph ug(g);
  ug.remove_edge(0);
  EXPECT_EQ(find_bridges(ug).size(), 3u);
}

// Every row of the method table must compute exactly what a direct call of
// its kernel computes, so callers that moved onto the table (CLI, router,
// engine, campaigns, ablations) keep their bytes.
TEST(MethodTable, EveryCentralityKindMatchesItsKernelBitwise) {
  SplitMix64 rng(11);
  Digraph g(40);
  for (int e = 0; e < 90; ++e) {
    g.add_edge(static_cast<NodeId>(rng.next() % 40),
               static_cast<NodeId>(rng.next() % 40));
  }
  BetweennessOptions sampled;
  sampled.samples = 8;
  sampled.seed = 5;
  const std::vector<double> eig_in = eigenvector_centrality(g, Direction::kIn);
  const std::vector<double> eig_out =
      eigenvector_centrality(g, Direction::kOut);
  std::vector<double> inout(eig_in.size());
  for (std::size_t i = 0; i < inout.size(); ++i) {
    inout[i] = eig_in[i] + eig_out[i];
  }
  const std::pair<const char*, std::vector<double>> expected[] = {
      {"eigenvector", eig_in},
      {"degree", degree_centrality(g, Direction::kIn)},
      {"pagerank", pagerank(g, Direction::kIn)},
      {"katz", katz_centrality(g, Direction::kIn)},
      {"nonbacktracking",
       nonbacktracking_centrality(g, Direction::kIn).centrality},
      {"closeness", closeness_centrality(g, Direction::kIn)},
      {"betweenness", node_betweenness(g, sampled)},
      {"inout-eigenvector", inout},
  };
  const std::vector<std::string> names = split(centrality_names(), '|');
  ASSERT_EQ(names.size(), std::size(expected));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], expected[i].first);
    const CentralityKind kind = parse_centrality(names[i]);
    EXPECT_STREQ(centrality_name(kind), expected[i].first);
    CentralityOptions opts;
    opts.samples = sampled.samples;
    opts.seed = sampled.seed;
    EXPECT_EQ(centrality(g, kind, opts), expected[i].second) << names[i];
  }
}

TEST(MethodTable, CommunityMethodsMatchTheirKernels) {
  const Digraph g = two_cliques_with_bridge();
  GirvanNewmanOptions gn;
  gn.min_community_size = 2;
  CommunityOptions opts;
  opts.min_size = 2;
  opts.method = parse_community_method("gn");
  const CommunityResult via_gn = communities(g, opts);
  const GirvanNewmanResult direct_gn = girvan_newman(g, gn);
  EXPECT_EQ(via_gn.communities, direct_gn.communities);
  EXPECT_EQ(via_gn.edges_removed, direct_gn.edges_removed);
  EXPECT_FALSE(via_gn.modularity.has_value());

  LouvainOptions lv;
  lv.min_community_size = 2;
  opts.method = parse_community_method("louvain");
  const CommunityResult via_louvain = communities(g, opts);
  const LouvainResult direct_louvain = louvain(g, lv);
  EXPECT_EQ(via_louvain.communities, direct_louvain.communities);
  EXPECT_EQ(via_louvain.modularity, direct_louvain.modularity);
  EXPECT_FALSE(via_louvain.edges_removed.has_value());
  EXPECT_STREQ(community_method_name(via_louvain.method), "louvain");
}

TEST(MethodTable, UnknownNamesListEveryValidName) {
  try {
    parse_centrality("eigen");
    FAIL() << "unknown kind accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown centrality kind 'eigen' (eigenvector|degree|pagerank|"
              "katz|nonbacktracking|closeness|betweenness|inout-eigenvector)");
  }
  try {
    parse_community_method("GN");
    FAIL() << "unknown method accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown community method 'GN' (gn|louvain)");
  }
}

}  // namespace
}  // namespace rca::graph

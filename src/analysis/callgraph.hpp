// Program-wide call graph over lang::ProgramSymbols resolution.
//
// One node per subprogram, in module order then subprogram order (both
// deterministic). Call-statement and function-reference edges resolve
// through the same per-module tables the lint passes and the metagraph
// builder use: generic interfaces expand to every candidate, so edges are a
// conservative over-approximation of the dynamic call relation. Tarjan's
// algorithm condenses the graph into strongly connected components whose
// ids come out in reverse topological order — component 0 is a sink — which
// is exactly the bottom-up order the mod/ref summary computation
// (summaries.hpp) needs: every callee's component is finished before any of
// its callers'.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"
#include "lang/symbols.hpp"

namespace rca::analysis {

struct CallGraph {
  struct Node {
    const lang::Module* module = nullptr;
    const lang::Subprogram* sp = nullptr;
  };

  std::vector<Node> nodes;
  std::vector<std::vector<std::size_t>> callees;  // sorted, deduplicated
  std::vector<std::vector<std::size_t>> callers;  // sorted, deduplicated
  // The body contains a call (or ambiguous `name(...)` reference) that no
  // visible procedure, intrinsic or module variable explains. Summaries of
  // such nodes cannot bound the callee's effects on module variables.
  std::vector<bool> has_unknown_call;

  // Tarjan condensation. `scc_of[n]` is in reverse topological order of the
  // condensation DAG: for an edge u -> v with scc_of[u] != scc_of[v],
  // scc_of[v] < scc_of[u].
  std::vector<std::size_t> scc_of;
  std::size_t scc_count = 0;
  std::vector<std::vector<std::size_t>> scc_members;  // ascending node ids
  std::vector<bool> scc_recursive;  // more than one member, or a self edge

  /// -1 when the subprogram is not part of the graph.
  int index_of(const lang::Subprogram* sp) const {
    auto it = index.find(sp);
    return it == index.end() ? -1 : static_cast<int>(it->second);
  }

  std::unordered_map<const lang::Subprogram*, std::size_t> index;
};

/// Builds the call graph and its SCC condensation. `symbols` must have been
/// constructed over the same module list.
CallGraph build_call_graph(const std::vector<const lang::Module*>& modules,
                           const lang::ProgramSymbols& symbols);

}  // namespace rca::analysis

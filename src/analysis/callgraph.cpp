#include "analysis/callgraph.hpp"

#include <algorithm>
#include <unordered_set>

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Module;
using lang::ProcRef;
using lang::ProgramSymbols;
using lang::RefBinding;
using lang::RefKind;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;

namespace {

/// Collects callee edges for one subprogram body.
class EdgeCollector {
 public:
  EdgeCollector(const CallGraph& cg, const ProgramSymbols::ModuleSyms* syms,
                const Subprogram& sp, std::vector<std::size_t>* out,
                bool* unknown)
      : cg_(cg), syms_(syms), out_(out), unknown_(unknown) {
    for (const auto& p : sp.params) locals_.insert(p);
    for (const auto& d : sp.decls) locals_.insert(d.name);
    if (sp.is_function()) locals_.insert(sp.result_name);
    lang::walk_stmts(
        sp.body,
        [this](const Stmt& s) {
          if (s.kind == StmtKind::kAssign) {
            walk_expr(s.lhs.get());
            walk_expr(s.rhs.get());
          } else if (s.kind == StmtKind::kCall) {
            // Builtins are not user procedures: no edge, nothing unknown.
            const RefBinding b = lang::classify_call(syms_, s.callee);
            if (b.kind != RefKind::kBuiltin) add_edges(b, false);
            for (const auto& a : s.args) walk_expr(a.get());
          }
        },
        [this](const Expr* e) { walk_expr(e); });
  }

 private:
  void walk_expr(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kUnary || e->kind == ExprKind::kBinary) {
      walk_expr(e->lhs.get());
      walk_expr(e->rhs.get());
      return;
    }
    if (e->kind != ExprKind::kRef) return;
    const RefBinding b =
        lang::classify_ref(syms_, *e, locals_.count(e->base_name()) != 0);
    if (b.is_call()) {
      add_edges(b, /*functions_only=*/true);
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) walk_expr(a.get());
    }
  }

  // Every candidate is an edge, whatever its arity; none makes the call
  // unknown.
  void add_edges(const RefBinding& b, bool functions_only) {
    bool any = false;
    if (b.kind == RefKind::kProcedure) {
      for (const ProcRef& c : *b.procs) {
        if (functions_only && !c.sp->is_function()) continue;
        const int idx = cg_.index_of(c.sp);
        if (idx >= 0) {
          out_->push_back(static_cast<std::size_t>(idx));
          any = true;
        }
      }
    }
    if (!any) *unknown_ = true;
  }

  const CallGraph& cg_;
  const ProgramSymbols::ModuleSyms* syms_;
  std::vector<std::size_t>* out_;
  bool* unknown_;
  std::unordered_set<std::string> locals_;
};

void sort_unique(std::vector<std::size_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Iterative Tarjan over `callees`; fills scc_of/scc_count. Component ids
/// come out in completion order, i.e. reverse topological order of the
/// condensation.
void tarjan(CallGraph& cg) {
  const std::size_t n = cg.nodes.size();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> idx(n, kUnvisited), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  cg.scc_of.assign(n, kUnvisited);
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t child = 0;
  };
  std::vector<Frame> frames;
  for (std::size_t root = 0; root < n; ++root) {
    if (idx[root] != kUnvisited) continue;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t u = f.node;
      if (f.child == 0) {
        idx[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      if (f.child < cg.callees[u].size()) {
        const std::size_t v = cg.callees[u][f.child++];
        if (idx[v] == kUnvisited) {
          frames.push_back({v});
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], idx[v]);
        }
        continue;
      }
      if (low[u] == idx[u]) {
        const std::size_t comp = cg.scc_count++;
        std::size_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          cg.scc_of[w] = comp;
        } while (w != u);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().node;
        low[parent] = std::min(low[parent], low[u]);
      }
    }
  }
}

}  // namespace

CallGraph build_call_graph(const std::vector<const Module*>& modules,
                           const ProgramSymbols& symbols) {
  CallGraph cg;
  for (const Module* m : modules) {
    for (const Subprogram& sp : m->subprograms) {
      cg.index.emplace(&sp, cg.nodes.size());
      cg.nodes.push_back({m, &sp});
    }
  }
  const std::size_t n = cg.nodes.size();
  cg.callees.resize(n);
  cg.callers.resize(n);
  cg.has_unknown_call.assign(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    const CallGraph::Node& node = cg.nodes[i];
    const ProgramSymbols::ModuleSyms* syms =
        symbols.module(node.module->name);
    bool unknown = false;
    EdgeCollector(cg, syms, *node.sp, &cg.callees[i], &unknown);
    cg.has_unknown_call[i] = unknown;
    sort_unique(cg.callees[i]);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : cg.callees[u]) cg.callers[v].push_back(u);
  }
  for (std::size_t v = 0; v < n; ++v) sort_unique(cg.callers[v]);

  tarjan(cg);
  cg.scc_members.assign(cg.scc_count, {});
  for (std::size_t i = 0; i < n; ++i) {
    cg.scc_members[cg.scc_of[i]].push_back(i);
  }
  cg.scc_recursive.assign(cg.scc_count, false);
  for (std::size_t c = 0; c < cg.scc_count; ++c) {
    if (cg.scc_members[c].size() > 1) {
      cg.scc_recursive[c] = true;
      continue;
    }
    const std::size_t only = cg.scc_members[c].front();
    cg.scc_recursive[c] = std::binary_search(
        cg.callees[only].begin(), cg.callees[only].end(), only);
  }
  return cg;
}

}  // namespace rca::analysis

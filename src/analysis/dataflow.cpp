#include "analysis/dataflow.hpp"

#include <algorithm>

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Intent;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::VarDecl;

// ---------------------------------------------------------------------------
// VarTable.
// ---------------------------------------------------------------------------

VarTable::VarTable(const Subprogram& sp) {
  std::unordered_map<std::string, const VarDecl*> decls;
  for (const VarDecl& d : sp.decls) decls.emplace(d.name, &d);

  auto add = [this](VarInfo info) {
    if (index_.count(info.name)) return;
    index_.emplace(info.name, static_cast<int>(vars_.size()));
    vars_.push_back(std::move(info));
  };

  for (const std::string& p : sp.params) {
    VarInfo info;
    info.name = p;
    info.kind = VarKind::kDummy;
    auto it = decls.find(p);
    if (it != decls.end()) {
      info.intent = it->second->intent;
      info.is_array = it->second->is_array();
      info.line = it->second->line;
      info.decl = it->second;
    } else {
      info.line = sp.line;
    }
    add(std::move(info));
  }

  if (sp.is_function()) {
    VarInfo info;
    info.name = sp.result_name;
    info.kind = VarKind::kResult;
    auto it = decls.find(sp.result_name);
    if (it != decls.end()) {
      info.is_array = it->second->is_array();
      info.line = it->second->line;
      info.decl = it->second;
    } else {
      info.line = sp.line;
    }
    add(std::move(info));
  }

  for (const VarDecl& d : sp.decls) {
    if (index_.count(d.name)) continue;  // dummy or result already added
    VarInfo info;
    info.name = d.name;
    info.kind = VarKind::kLocal;
    info.has_init = d.is_parameter || d.init != nullptr;
    info.is_parameter = d.is_parameter;
    info.is_array = d.is_array();
    info.line = d.line;
    info.decl = &d;
    add(std::move(info));
  }
}

// ---------------------------------------------------------------------------
// Use/def fact extraction.
// ---------------------------------------------------------------------------

namespace {

class FactExtractor {
 public:
  FactExtractor(const VarTable& vars, const DataflowContext& ctx)
      : vars_(vars), ctx_(ctx) {}

  std::size_t calls_resolved() const { return calls_resolved_; }

  StmtFacts extract(const CfgStmt& cs) {
    facts_ = StmtFacts{};
    switch (cs.role) {
      case CfgStmt::Role::kCond:
        read_expr(cs.cond);
        break;
      case CfgStmt::Role::kDoHeader: {
        read_expr(cs.stmt->from.get());
        read_expr(cs.stmt->to.get());
        read_expr(cs.stmt->step.get());
        const int id = vars_.lookup(cs.stmt->do_var);
        if (id >= 0) {
          facts_.def = id;
          facts_.kills = true;
        }
        break;
      }
      case CfgStmt::Role::kSimple:
        if (cs.stmt->kind == StmtKind::kAssign) {
          extract_assign(*cs.stmt);
        } else if (cs.stmt->kind == StmtKind::kCall) {
          extract_call(*cs.stmt);
        }
        break;
    }
    return std::move(facts_);
  }

 private:
  void extract_assign(const Stmt& s) {
    read_expr(s.rhs.get());
    const Expr& lhs = *s.lhs;
    const int id = vars_.lookup(lhs.base_name());
    for (const auto& seg : lhs.segments) {
      for (const auto& a : seg.args) read_expr(a.get());
    }
    if (id < 0) return;  // module-level target: no intraprocedural def
    facts_.def = id;
    facts_.kills = lhs.segments.size() == 1 && !lhs.segments[0].has_args;
    // Element or component stores update part of the variable, so the old
    // value flows through: model as a read too.
    if (!facts_.kills) facts_.uses.push_back({id, &lhs});
  }

  void extract_call(const Stmt& s) {
    extract_call_args(s.callee, s.args, /*function_context=*/false);
  }

  // Shared by `call` statements and function references: walks argument
  // reads, then models the callee's effect on each by-reference argument —
  // through its mod/ref summary when the context resolves one, and with the
  // conservative blanket may-def otherwise.
  void extract_call_args(const std::string& name,
                         const std::vector<lang::ExprPtr>& args,
                         bool function_context) {
    std::optional<CallEffect> eff;
    if (ctx_.call_effects) {
      eff = ctx_.call_effects(name, args.size(), function_context);
      if (eff && eff->args.size() != args.size()) eff.reset();
      if (eff) ++calls_resolved_;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Expr* a = args[i].get();
      const std::size_t first = facts_.uses.size();
      read_expr(a);
      if (a == nullptr || !a->is_ref()) continue;
      const int id = vars_.lookup(a->base_name());
      if (id < 0) continue;  // module-level data: no intraprocedural fact
      if (!eff) {
        facts_.may_defs.push_back(id);
        mark_ref_arg_use_via_call(a, first);
        continue;
      }
      const CallArgEffect& ae = eff->args[i];
      const bool whole = a->segments.size() == 1 && !a->segments[0].has_args;
      if (ae.definitely_writes && whole) {
        facts_.kill_defs.push_back(id);
      } else if (ae.may_write || ae.definitely_writes) {
        facts_.may_defs.push_back(id);
        facts_.summary_may_defs.push_back(id);
      } else {
        facts_.suppressed_defs.push_back(id);
      }
      for (std::size_t u = first; u < facts_.uses.size(); ++u) {
        if (facts_.uses[u].expr != a) continue;
        facts_.uses[u].via_call = true;
        if (ae.observes_incoming) facts_.uses[u].summary_read = true;
        if (!ae.may_read_incoming) facts_.uses[u].summary_ignored = true;
      }
    }
  }

  // Flags the top-level read a by-reference argument contributed (subscript
  // reads inside it stay ordinary uses).
  void mark_ref_arg_use_via_call(const Expr* a, std::size_t first) {
    if (a == nullptr || !a->is_ref()) return;
    for (std::size_t i = first; i < facts_.uses.size(); ++i) {
      if (facts_.uses[i].expr == a) facts_.uses[i].via_call = true;
    }
  }

  void read_expr(const Expr* e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::kNumber:
      case ExprKind::kString:
      case ExprKind::kLogical:
        return;
      case ExprKind::kUnary:
        read_expr(e->rhs.get());
        return;
      case ExprKind::kBinary:
        read_expr(e->lhs.get());
        read_expr(e->rhs.get());
        return;
      case ExprKind::kRef:
        break;
    }

    const int id = vars_.lookup(e->base_name());
    if (id >= 0) facts_.uses.push_back({id, e});
    if (lang::classify_ref(ctx_.syms, *e, id >= 0).is_call()) {
      // Treat as a call: reference arguments may be written by the callee.
      extract_call_args(e->base_name(), e->segments[0].args,
                        /*function_context=*/true);
      return;
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) read_expr(a.get());
    }
  }

  const VarTable& vars_;
  const DataflowContext& ctx_;
  StmtFacts facts_;
  std::size_t calls_resolved_ = 0;
};

// Dense bit set sized once; subprograms are small, simplicity wins.
using Bits = std::vector<char>;

bool or_into(Bits& dst, const Bits& src) {
  bool changed = false;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (src[i] && !dst[i]) {
      dst[i] = 1;
      changed = true;
    }
  }
  return changed;
}

struct DefSite {
  int var = -1;
  bool uninit = false;
};

void count_decl_uses(const Expr* e, const VarTable& vars,
                     std::vector<int>* use_counts) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kUnary || e->kind == ExprKind::kBinary) {
    count_decl_uses(e->lhs.get(), vars, use_counts);
    count_decl_uses(e->rhs.get(), vars, use_counts);
    return;
  }
  if (e->kind != ExprKind::kRef) return;
  const int id = vars.lookup(e->base_name());
  if (id >= 0) ++(*use_counts)[static_cast<std::size_t>(id)];
  for (const auto& seg : e->segments) {
    for (const auto& a : seg.args) count_decl_uses(a.get(), vars, use_counts);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dataflow driver.
// ---------------------------------------------------------------------------

DataflowResult analyze_dataflow(const Subprogram& sp,
                                const DataflowContext& ctx) {
  DataflowResult r(sp);
  const std::size_t nblocks = r.cfg.size();
  const std::size_t nvars = r.vars.size();
  r.def_counts.assign(nvars, 0);
  r.use_counts.assign(nvars, 0);

  FactExtractor extractor(r.vars, ctx);
  r.facts.resize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (const CfgStmt& cs : r.cfg.blocks[b].stmts) {
      r.facts[b].push_back(extractor.extract(cs));
    }
  }
  r.calls_resolved = extractor.calls_resolved();
  for (const auto& block_facts : r.facts) {
    for (const StmtFacts& f : block_facts) {
      for (const UseSite& u : f.uses) ++r.use_counts[(std::size_t)u.var];
      if (f.def >= 0) ++r.def_counts[(std::size_t)f.def];
      for (int v : f.may_defs) ++r.def_counts[(std::size_t)v];
      for (int v : f.kill_defs) ++r.def_counts[(std::size_t)v];
    }
  }
  // Extent and initializer expressions in declarations read variables too
  // (`real :: buf(n)` keeps `n` from being reported unused).
  for (const lang::VarDecl& d : sp.decls) {
    for (const auto& dim : d.dims) count_decl_uses(dim.get(), r.vars, &r.use_counts);
    count_decl_uses(d.init.get(), r.vars, &r.use_counts);
  }

  // -------------------------------------------------------------------------
  // Reaching definitions (forward may) over definition sites.
  // -------------------------------------------------------------------------
  std::vector<DefSite> sites;
  std::vector<std::vector<int>> sites_of_var(nvars);
  // Real definition sites, identified by (block, stmt) walk order.
  std::vector<std::vector<std::vector<int>>> stmt_sites(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    stmt_sites[b].resize(r.facts[b].size());
    for (std::size_t i = 0; i < r.facts[b].size(); ++i) {
      const StmtFacts& f = r.facts[b][i];
      for (int v : f.may_defs) {
        const int site = static_cast<int>(sites.size());
        sites.push_back({v, false});
        sites_of_var[(std::size_t)v].push_back(site);
        stmt_sites[b][i].push_back(site);
      }
      for (int v : f.kill_defs) {
        const int site = static_cast<int>(sites.size());
        sites.push_back({v, false});
        sites_of_var[(std::size_t)v].push_back(site);
        stmt_sites[b][i].push_back(site);
      }
      if (f.def >= 0) {
        const int site = static_cast<int>(sites.size());
        sites.push_back({f.def, false});
        sites_of_var[(std::size_t)f.def].push_back(site);
        stmt_sites[b][i].push_back(site);
      }
    }
  }
  // One "uninitialized" pseudo-site per variable with no value at entry.
  std::vector<int> uninit_site(nvars, -1);
  for (std::size_t v = 0; v < nvars; ++v) {
    const VarInfo& info = r.vars.var(static_cast<int>(v));
    const bool starts_undefined =
        (info.kind == VarKind::kLocal && !info.has_init) ||
        info.kind == VarKind::kResult ||
        (info.kind == VarKind::kDummy && info.intent == Intent::kOut);
    if (!starts_undefined) continue;
    uninit_site[v] = static_cast<int>(sites.size());
    sites.push_back({static_cast<int>(v), true});
    sites_of_var[v].push_back(uninit_site[v]);
  }
  const std::size_t nsites = sites.size();

  auto apply_stmt_defs = [&](Bits& cur, std::size_t b, std::size_t i) {
    const StmtFacts& f = r.facts[b][i];
    std::size_t slot = 0;
    for (std::size_t k = 0; k < f.may_defs.size(); ++k) {
      const int v = f.may_defs[k];
      // A by-reference argument never kills prior real definitions, but it
      // does clear the "uninitialized" state: assume the callee initialized
      // it, so `call init(y)` silences use-before-def downstream.
      if (uninit_site[(std::size_t)v] >= 0) {
        cur[(std::size_t)uninit_site[(std::size_t)v]] = 0;
      }
      cur[(std::size_t)stmt_sites[b][i][slot++]] = 1;
    }
    for (std::size_t k = 0; k < f.kill_defs.size(); ++k) {
      // A whole-variable argument the callee assigns on every path kills
      // like an assignment, including the uninitialized pseudo-def.
      const int v = f.kill_defs[k];
      for (int s : sites_of_var[(std::size_t)v]) cur[(std::size_t)s] = 0;
      cur[(std::size_t)stmt_sites[b][i][slot++]] = 1;
    }
    if (f.def >= 0) {
      const int site = stmt_sites[b][i][slot];
      if (f.kills) {
        for (int s : sites_of_var[(std::size_t)f.def]) cur[(std::size_t)s] = 0;
      }
      cur[(std::size_t)site] = 1;
    }
  };

  std::vector<Bits> rd_in(nblocks, Bits(nsites, 0));
  std::vector<Bits> rd_out(nblocks, Bits(nsites, 0));
  for (std::size_t v = 0; v < nvars; ++v) {
    if (uninit_site[v] >= 0) rd_in[(std::size_t)r.cfg.entry][(std::size_t)uninit_site[v]] = 1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nblocks; ++b) {
      Bits cur = rd_in[b];
      for (std::size_t i = 0; i < r.facts[b].size(); ++i) apply_stmt_defs(cur, b, i);
      if (cur != rd_out[b]) {
        rd_out[b] = cur;
        changed = true;
      }
      for (int s : r.cfg.blocks[b].succs) {
        if (or_into(rd_in[(std::size_t)s], rd_out[b])) changed = true;
      }
    }
  }

  // Classify each read against the definitions that reach it. Variables
  // whose conservative call-clear was suppressed by a summary stay capped at
  // maybe: interprocedural mode may surface new findings but never upgrades
  // anything to the definite (error) tier the intraprocedural model missed.
  Bits suppressed(nvars, 0);
  for (const auto& block_facts : r.facts) {
    for (const StmtFacts& f : block_facts) {
      for (int v : f.suppressed_defs) suppressed[(std::size_t)v] = 1;
    }
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    Bits cur = rd_in[b];
    for (std::size_t i = 0; i < r.facts[b].size(); ++i) {
      for (const UseSite& u : r.facts[b][i].uses) {
        if (u.via_call && !u.summary_read) continue;
        bool saw_uninit = false;
        bool saw_real = false;
        for (int s : sites_of_var[(std::size_t)u.var]) {
          if (!cur[(std::size_t)s]) continue;
          if (sites[(std::size_t)s].uninit) saw_uninit = true;
          else saw_real = true;
        }
        if (saw_uninit) {
          const bool definite =
              !saw_real && !u.via_call && !suppressed[(std::size_t)u.var];
          r.use_before_def.push_back({u.var, u.expr, definite});
        }
      }
      apply_stmt_defs(cur, b, i);
    }
  }

  // -------------------------------------------------------------------------
  // Liveness (backward may); dead stores fall out of the block-local sweep.
  // -------------------------------------------------------------------------
  Bits exit_live(nvars, 0);
  for (std::size_t v = 0; v < nvars; ++v) {
    const VarInfo& info = r.vars.var(static_cast<int>(v));
    if (info.kind == VarKind::kResult ||
        (info.kind == VarKind::kDummy && info.intent != Intent::kIn)) {
      exit_live[v] = 1;
    }
  }
  std::vector<Bits> live_out(nblocks, Bits(nvars, 0));
  std::vector<Bits> live_in(nblocks, Bits(nvars, 0));
  live_in[(std::size_t)r.cfg.exit] = exit_live;
  live_out[(std::size_t)r.cfg.exit] = exit_live;
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = nblocks; bi-- > 0;) {
      if (static_cast<int>(bi) == r.cfg.exit) continue;
      Bits out(nvars, 0);
      for (int s : r.cfg.blocks[bi].succs) or_into(out, live_in[(std::size_t)s]);
      live_out[bi] = out;
      Bits cur = out;
      for (std::size_t i = r.facts[bi].size(); i-- > 0;) {
        const StmtFacts& f = r.facts[bi][i];
        if (f.def >= 0 && f.kills) cur[(std::size_t)f.def] = 0;
        for (int v : f.kill_defs) cur[(std::size_t)v] = 0;
        for (const UseSite& u : f.uses) {
          if (!u.summary_ignored) cur[(std::size_t)u.var] = 1;
        }
      }
      if (cur != live_in[bi]) {
        live_in[bi] = std::move(cur);
        changed = true;
      }
    }
  }

  for (std::size_t b = 0; b < nblocks; ++b) {
    Bits cur = live_out[b];
    for (std::size_t i = r.facts[b].size(); i-- > 0;) {
      const StmtFacts& f = r.facts[b][i];
      const CfgStmt& cs = r.cfg.blocks[b].stmts[i];
      if (cs.role == CfgStmt::Role::kSimple &&
          cs.stmt->kind == StmtKind::kAssign && f.def >= 0 && f.kills &&
          !cur[(std::size_t)f.def]) {
        const VarInfo& info = r.vars.var(f.def);
        // Initialized locals carry Fortran's implicit SAVE, so a store can
        // feed the next call — never classify those as dead.
        if (info.kind == VarKind::kLocal && !info.has_init) {
          r.dead_stores.push_back(cs.stmt);
        }
      }
      if (f.def >= 0 && f.kills) cur[(std::size_t)f.def] = 0;
      for (int v : f.kill_defs) cur[(std::size_t)v] = 0;
      for (const UseSite& u : f.uses) {
        if (!u.summary_ignored) cur[(std::size_t)u.var] = 1;
      }
    }
  }
  std::sort(r.dead_stores.begin(), r.dead_stores.end(),
            [](const Stmt* a, const Stmt* b) {
              return a->line != b->line ? a->line < b->line
                                        : a->column < b->column;
            });
  return r;
}

std::unordered_set<const Stmt*> dead_store_stmts(const Subprogram& sp,
                                                 const DataflowContext& ctx) {
  DataflowResult r = analyze_dataflow(sp, ctx);
  return {r.dead_stores.begin(), r.dead_stores.end()};
}

std::unordered_set<const Stmt*> dead_store_stmts(const lang::Module& m,
                                                 const DataflowContext& ctx) {
  std::unordered_set<const Stmt*> all;
  for (const Subprogram& sp : m.subprograms) {
    for (const Stmt* s : dead_store_stmts(sp, ctx)) all.insert(s);
  }
  return all;
}

}  // namespace rca::analysis

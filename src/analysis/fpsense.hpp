// Floating-point sensitivity: a forward taint-style pass that finds
// expression sites where compiler value-changing optimizations can perturb
// results — the paper's actual root-cause class (FMA contraction and
// reassociation under -O3, Table 1).
//
// FP-ness propagates from real literals, real-typed variables (local and
// module) and FP intrinsics; calls to user functions extend the taint
// through the mod/ref summaries via the oracle. Two site kinds:
//
//   contraction    an FP add/subtract with a multiply operand — the shape
//                  FMA contraction fuses, changing the rounding;
//   reassociation  an FP chain of three or more +/- terms, where the
//                  compiler's association order changes the sum.
//
// Sites surface as `fp-sensitivity` lint notes (interprocedural mode) and
// as the `rca.fpsense.v1` JSON report the scenario library (ROADMAP item 4)
// plants perturbations at.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "lang/symbols.hpp"

namespace rca::analysis {

struct ProgramSummaries;

struct FpSite {
  enum class Kind { kContraction, kReassociation };
  const lang::Subprogram* sp = nullptr;
  const lang::Expr* expr = nullptr;
  Kind kind = Kind::kContraction;
  std::string target;  // assigned variable when inside an assignment
};

const char* fp_site_kind_name(FpSite::Kind k);

/// Does user function `fn`, a candidate a `name(...)` site binds, return a
/// real? Extends the taint through procedure summaries; a null oracle treats
/// user function calls as non-FP.
using FpCallOracle = std::function<bool(const lang::Subprogram& fn)>;

/// FP-sensitive sites of one subprogram, in statement walk order.
std::vector<FpSite> find_fp_sites(const lang::Subprogram& sp,
                                  const lang::ProgramSymbols::ModuleSyms* syms,
                                  const FpCallOracle& returns_real);

/// The summary-backed oracle: true when the candidate's summary says it
/// returns a real. A null `summaries` makes every call non-FP; it must
/// outlive the returned oracle.
FpCallOracle summary_fp_oracle(const ProgramSummaries* summaries);

/// Deterministic JSON report, schema `rca.fpsense.v1`: every site across
/// `modules` plus the transitively FP-sensitive procedures from `summaries`.
std::string fpsense_report_json(const std::vector<const lang::Module*>& modules,
                                const lang::ProgramSymbols& symbols,
                                const ProgramSummaries& summaries);

}  // namespace rca::analysis

// Program-wide name resolution (paper §4), shared by the metagraph builder,
// every analysis and the interpreter.
//
// `ProgramSymbols` maps each module's local names to the procedures, module
// variables and derived types they denote. Three layers, in order:
//   * own entities — the module's subprograms, module variables and types;
//   * interface blocks, expanded to ALL their module procedures (the
//     conservative mapping);
//   * use-imports honoring only-lists and renames, resolved in two rounds so
//     a re-exported import (`use b` where b does `use c`) resolves one level
//     deep regardless of module order. Deeper chains are not followed.
// It reads only interface-level content — declarations, subprogram
// signatures, interface blocks and use statements — never statement bodies.
// What the table cannot resolve (a dangling interface procedure, an unknown
// used module, a missing only-list entity, a duplicate module) is listed in
// `errors()`: the builder and the analyses tolerate it, the interpreter
// refuses to load.
//
// On top of the table sits the one call-site resolver. `classify_ref` says
// what a reference denotes at its site, in the order the builder and the
// interpreter apply: subprogram variable, module variable, then — for the
// ambiguous `name(...)` form — user procedure, intrinsic (with its table
// entry), unknown. A user procedure therefore shadows the intrinsic of the
// same name. `classify_call` does the same for `call` statements, where the
// builtins `outfld` and `shr_rand_uniform` come first, and `binds_call` is
// the one arity and function/subroutine filter over the candidates.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lang/ast.hpp"

namespace rca::lang {

/// One candidate procedure a name may resolve to.
struct ProcRef {
  const Module* module = nullptr;
  const Subprogram* sp = nullptr;
};

/// Coverage predicate over (module, subprogram); rejected subprograms are
/// left out of the table as if commented out. Null keeps everything.
using SubprogramFilter =
    std::function<bool(const std::string& module, const std::string& sub)>;

/// (Owning module, remote name) of a module variable.
using VarBinding = std::pair<const Module*, std::string>;

/// Local name -> binding for module variables; own variables map to
/// themselves.
using VarBindings = std::unordered_map<std::string, VarBinding>;

/// A derived type and the module that defines it.
struct TypeRef {
  const Module* module = nullptr;
  const DerivedTypeDef* def = nullptr;
};

class ProgramSymbols {
 public:
  explicit ProgramSymbols(const std::vector<const Module*>& modules,
                          const SubprogramFilter& keep = nullptr);

  struct ModuleSyms {
    const Module* ast = nullptr;
    // Local name -> candidates (own subprograms + expanded interfaces +
    // imports, honoring only-lists and renames).
    std::unordered_map<std::string, std::vector<ProcRef>> procs;
    VarBindings vars;
    // Local name -> derived type, by the same own-then-import rules.
    std::unordered_map<std::string, TypeRef> types;
  };

  /// Null if the module is unknown.
  const ModuleSyms* module(const std::string& name) const;

  /// Unresolvable declarations, in walk order, as the interpreter reports
  /// them; empty for a well-formed program. Checked against the filtered
  /// table.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::unordered_map<std::string, ModuleSyms> modules_;
  std::vector<std::string> errors_;
};

/// The intrinsic functions: evaluated by the interpreter, localized to their
/// call site by the builder (§4.2). The table in `find_intrinsic` is the one
/// list of them; `classify_ref` hands out its entries, so the interpreter
/// selects an implementation by `id` and fpsense reads `always_real`
/// without comparing names.
enum class Intrinsic {
  kAbs, kSqrt, kExp, kLog, kLog10, kSin, kCos, kTan, kTanh, kMin, kMax,
  kMod, kSign, kFloor, kNint, kAint, kInt, kReal, kSum, kMinval, kMaxval,
  kSize, kMerge,
};

struct IntrinsicInfo {
  Intrinsic id;
  // Real-valued whatever the argument types. Only the elemental math
  // functions carry it; the rest follow their arguments for fpsense.
  bool always_real;
};

/// The table entry of intrinsic function `name`, or null.
const IntrinsicInfo* find_intrinsic(const std::string& name);

/// Host subroutines with dedicated semantics: `call outfld('LABEL', x)`
/// records history output, `call shr_rand_uniform(x)` fills x from the PRNG.
inline constexpr const char kOutfld[] = "outfld";
inline constexpr const char kRandUniform[] = "shr_rand_uniform";

/// What a name denotes at one site.
enum class RefKind {
  kLocal,       // dummy, local or result of the enclosing subprogram
  kModuleVar,   // own or use-imported module variable: `var`
  kProcedure,   // user procedure candidates, unfiltered: `procs`
  kIntrinsic,   // intrinsic function (`name(...)` references only)
  kBuiltin,     // outfld / shr_rand_uniform (`call` statements only)
  kUnresolved,  // call form nothing visible explains: the analyses assume
                // an unknown callee, the builder an undeclared array
  kUnknown,     // any other shape nothing visible explains
};

struct RefBinding {
  RefKind kind = RefKind::kUnknown;
  const VarBinding* var = nullptr;             // kModuleVar
  const std::vector<ProcRef>* procs = nullptr;  // kProcedure
  const IntrinsicInfo* intrinsic = nullptr;     // kIntrinsic

  /// A call to the analyses: a user procedure or an unresolved callee.
  bool is_call() const {
    return kind == RefKind::kProcedure || kind == RefKind::kUnresolved;
  }
};

/// Classifies reference chain `e` in module `syms` (null: nothing visible).
/// `is_local` says whether its base name is a variable of the enclosing
/// subprogram — each caller keeps its own subprogram table. Only the
/// single-segment `name(...)` form can be a procedure, an intrinsic or
/// unresolved; any other shape that is neither local nor module data is
/// kUnknown.
RefBinding classify_ref(const ProgramSymbols::ModuleSyms* syms, const Expr& e,
                        bool is_local);

/// Classifies the callee of a `call` statement: builtin, user procedure,
/// or unresolved.
RefBinding classify_call(const ProgramSymbols::ModuleSyms* syms,
                         const std::string& callee);

/// Can candidate `sp` bind a site with `nargs` arguments? A `name(...)`
/// reference binds functions, a `call` statement subroutines.
inline bool binds_call(const Subprogram& sp, std::size_t nargs,
                       bool function_context) {
  return sp.is_function() == function_context && sp.params.size() == nargs;
}

}  // namespace rca::lang

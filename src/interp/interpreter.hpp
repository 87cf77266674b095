// Tree-walking interpreter for the Fortran subset.
//
// This is the stand-in for "running CESM": the same source corpus that the
// metagraph builder turns into a dependency digraph is *executed* here, so
// runtime sampling, coverage, output statistics and hardware-style (FMA)
// sensitivity all come from genuinely running the analyzed code.
//
// Names resolve through `lang::ProgramSymbols` and the call-site resolver
// (`lang::classify_ref` / `classify_call` / `binds_call`), the same table and
// rules the metagraph builder and the analyses use, so a watched variable and
// the metagraph node it is sampled for are the same binding (§4.2).
//
// Inside, each step has one path. One resolver turns a reference into its
// value slot and owner scope, for reads, argument binding, assignment and
// `do` variables alike: locals belong to the enclosing subprogram, module
// variables to their home module, derived components to the assignment
// site, and parameters read as temporaries. One subscript walker serves
// gather and scatter, one argument binder (with copy-out) serves user
// procedures and the builtins, and intrinsics dispatch on the id of their
// `lang::find_intrinsic` entry. Watch keys are built only while a watch or
// assignment recording is on.
//
// Key capabilities used by the reproduction:
//   * per-module FMA contraction mode — `a*b + c` evaluated with std::fma
//     (single rounding) when enabled, mirroring AVX2/FMA codegen differences
//     that the paper's Table 1 manipulates per module;
//   * watchpoints on (module, subprogram, variable) — every assignment to a
//     watched variable feeds running statistics, the runtime-sampling
//     mechanism of Algorithm 5.4 step 7;
//   * coverage recording at module/subprogram granularity (the paper's
//     codecov substitute), marked per subprogram and named on read;
//   * `call outfld('LABEL', field)` output capture — the CAM history-file
//     stand-in, recording per-field global means the ECT consumes.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interp/value.hpp"
#include "lang/ast.hpp"
#include "support/rng.hpp"

namespace rca::lang {
class ProgramSymbols;
}

namespace rca::interp {

/// Identity of a watchable variable; matches metagraph node identity.
struct WatchKey {
  std::string module;
  std::string subprogram;  // empty for module-level variables
  std::string name;

  bool operator==(const WatchKey& o) const {
    return module == o.module && subprogram == o.subprogram && name == o.name;
  }
};

struct WatchKeyHash {
  std::size_t operator()(const WatchKey& k) const {
    std::hash<std::string> h;
    return h(k.module) * 1000003u ^ h(k.subprogram) * 10007u ^ h(k.name);
  }
};

/// Running statistics over every element assigned to a watched variable.
struct WatchStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double last = 0.0;

  void record(double v) {
    ++count;
    sum += v;
    sum_sq += v * v;
    last = v;
  }

  /// Root mean square of observed values (KGen compares normalized RMS).
  double rms() const;
  double mean() const;
};

/// Module/subprogram execution coverage (the codecov substitute).
class CoverageRecorder {
 public:
  void record(const std::string& module, const std::string& subprogram);
  bool module_executed(const std::string& module) const;
  bool subprogram_executed(const std::string& module,
                           const std::string& subprogram) const;
  const std::unordered_set<std::string>& modules() const { return modules_; }
  const std::unordered_set<std::string>& subprograms() const {
    return subprograms_;  // keys are "module::subprogram"
  }
  void clear();

 private:
  std::unordered_set<std::string> modules_;
  std::unordered_set<std::string> subprograms_;
};

class Interpreter {
 public:
  /// Loads a corpus: builds its `lang::ProgramSymbols` table, evaluates
  /// parameters, and allocates module variables. Module ASTs must outlive
  /// the interpreter. Throws EvalError with the table's first error (a
  /// duplicate module, a dangling interface procedure, a use of an unknown
  /// module or only-list entity) or on an unresolvable parameter.
  explicit Interpreter(std::vector<const lang::Module*> modules);

  /// The same load over a table already built from exactly `modules`, so
  /// many runs of one corpus share one read-only table (concurrent
  /// interpreters may share it too). Errors are as above.
  Interpreter(std::vector<const lang::Module*> modules,
              std::shared_ptr<const lang::ProgramSymbols> symbols);
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // -- configuration ---------------------------------------------------------

  /// Enable FMA contraction for one module (throws for unknown modules).
  void set_fma(const std::string& module, bool enabled);
  void set_fma_all(bool enabled);

  /// Enable FP reassociation: +/- chains of three or more terms are summed
  /// right-to-left instead of the source's left-to-right association (the
  /// -Ofast-style perturbation behind the reassociation scenario).
  void set_reassoc(const std::string& module, bool enabled);
  void set_reassoc_all(bool enabled);

  /// Install the PRNG backing the built-in `shr_rand_uniform` subroutine.
  void set_prng(std::unique_ptr<Prng> prng);
  Prng* prng() { return prng_.get(); }

  // -- instrumentation -------------------------------------------------------

  void add_watch(const WatchKey& key);
  void clear_watches();
  const std::unordered_map<WatchKey, WatchStats, WatchKeyHash>& watch_stats()
      const {
    return watch_stats_;
  }

  /// When enabled, every executed assignment's (module, subprogram,
  /// canonical-name) identity is recorded — the dynamic counterpart of the
  /// metagraph's node set, used to validate that the static graph covers
  /// everything that actually runs.
  void set_record_assignments(bool enabled) { record_assignments_ = enabled; }
  const std::unordered_set<WatchKey, WatchKeyHash>& assigned_keys() const {
    return assigned_keys_;
  }

  /// Subprograms run so far. A run marks each subprogram by identity; the
  /// names are filled in here, on read.
  CoverageRecorder& coverage();
  const CoverageRecorder& coverage() const;

  /// Output fields recorded via `call outfld('LABEL', value)`, in call
  /// order: (label lower-cased, global mean of the written value).
  const std::vector<std::pair<std::string, double>>& outputs() const {
    return outputs_;
  }
  void clear_outputs() { outputs_.clear(); }

  // -- execution -------------------------------------------------------------

  /// Call `subprogram` in `module` with the given by-value arguments.
  /// Returns the function result, or an empty slot for subroutines.
  ValueSlot call(const std::string& module, const std::string& subprogram,
                 std::vector<Value> args = {});

  /// Direct access to a module variable slot (drivers and tests).
  ValueSlot module_var(const std::string& module, const std::string& name);

  /// Number of assignment statements executed since construction.
  std::uint64_t assignments_executed() const { return assignments_executed_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  // Shared with Impl.
  std::unordered_map<WatchKey, WatchStats, WatchKeyHash> watch_stats_;
  std::unordered_set<WatchKey, WatchKeyHash> assigned_keys_;
  bool record_assignments_ = false;
  mutable CoverageRecorder coverage_;
  std::vector<std::pair<std::string, double>> outputs_;
  std::unique_ptr<Prng> prng_;
  std::uint64_t assignments_executed_ = 0;
};

}  // namespace rca::interp

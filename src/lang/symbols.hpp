// Program-wide name resolution (paper §4), shared by the metagraph builder
// and every analysis: each module's local names map to the procedures and
// module variables they denote. Three layers, in order:
//   * own entities — the module's subprograms and module variables;
//   * interface blocks, expanded to ALL their module procedures (the
//     conservative mapping; dangling entries are tolerated);
//   * use-imports honoring only-lists and renames, resolved in two rounds so
//     a re-exported import (`use b` where b does `use c`) resolves one level
//     deep regardless of module order. Deeper chains are not followed.
//
// Reads only interface-level content — declarations, subprogram signatures,
// interface blocks and use statements — never statement bodies.
#pragma once

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

/// Local name -> (owning module, remote name) for module variables; own
/// variables map to themselves.
using VarBindings =
    std::unordered_map<std::string, std::pair<const Module*, std::string>>;

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
  };

  /// Null if the module is unknown.
  const ModuleSyms* module(const std::string& name) const;

 private:
  std::unordered_map<std::string, ModuleSyms> modules_;
};

}  // namespace rca::lang

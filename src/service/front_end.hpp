// Shared corpus front-end helpers: on-disk source collection, (optionally
// parallel) parsing, the build-list filter and the folding of parse failures
// into lint diagnostics. The session store builds every graph through them
// (`rca-tool graph`, `watch` and the daemon all go through the store), and
// `rca-tool lint`, which needs no graph, calls them directly — so every
// surface sees the same file ordering, module set and failure folding.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "lang/ast.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::service {

/// Every Fortran-ish file (.f90/.f/.f95, case-insensitive) under `src_dir`
/// as (path, text), in sorted path order — directory iteration order is
/// filesystem-dependent, and node ids / diagnostic order must not depend on
/// it. Throws rca::Error when the directory cannot be read.
std::vector<std::pair<std::string, std::string>> collect_fortran_sources(
    const std::string& src_dir);

/// The same file set as collect_fortran_sources, paths only (sorted), no
/// file contents read — the watch loop stats these every tick and reads
/// only files whose mtime moved.
std::vector<std::string> collect_fortran_paths(const std::string& src_dir);

/// Parses sources into file-order slots (independent per file, so the pool
/// can schedule them freely without changing the result). Parse failures
/// land in `errors` by index, paired with their source path. `pool` may be
/// null for a serial parse.
std::vector<lang::SourceFile> parse_sources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    ThreadPool* pool, std::vector<std::pair<std::string, std::string>>* errors);

/// True when `module` is in the build configuration (one module name per
/// entry); an empty list keeps every module.
bool in_build_list(const std::vector<std::string>& build_list,
                   const std::string& module);

/// A file the front end cannot parse is itself a finding: appends one
/// `parse-error` diagnostic per (path, message) failure, then re-sorts the
/// stream by analysis::diagnostic_less so every emitter sees them in order.
void fold_parse_errors(
    const std::vector<std::pair<std::string, std::string>>& parse_errors,
    std::vector<analysis::Diagnostic>* diagnostics);

}  // namespace rca::service

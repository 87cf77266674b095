#include "lang/symbols.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace rca::lang {

ProgramSymbols::ProgramSymbols(const std::vector<const Module*>& modules,
                               const SubprogramFilter& keep) {
  for (const Module* m : modules) {
    auto& syms = modules_[m->name];
    if (syms.ast != nullptr) {
      errors_.push_back("duplicate module '" + m->name + "'");
    }
    syms.ast = m;
    for (const auto& sp : m->subprograms) {
      if (keep && !keep(m->name, sp.name)) continue;
      syms.procs[sp.name].push_back(ProcRef{m, &sp});
    }
    for (const auto& d : m->decls) {
      syms.vars[d.name] = {m, d.name};
    }
    for (const auto& t : m->types) {
      syms.types[t.name] = TypeRef{m, &t};
    }
  }
  for (const Module* m : modules) {
    auto& syms = modules_[m->name];
    for (const auto& iface : m->interfaces) {
      for (const auto& proc : iface.procedures) {
        auto it = syms.procs.find(proc);
        if (it == syms.procs.end()) {
          errors_.push_back("interface '" + iface.name +
                            "' names unknown procedure '" + proc +
                            "' in module " + m->name);
          continue;
        }
        auto& vec = syms.procs[iface.name];
        vec.insert(vec.end(), it->second.begin(), it->second.end());
      }
    }
  }
  auto error_at = [this](int line, const std::string& msg) {
    errors_.push_back(line > 0 ? strfmt("line %d: %s", line, msg.c_str())
                               : msg);
  };
  // Imports resolve in two rounds against immutable snapshots, so the result
  // is independent of module input order: round one imports each source
  // module's own exports, round two re-imports from the post-round-one
  // tables, which adds exactly one level of re-exported imports. What is
  // still unresolved in round two is an error.
  auto apply_imports =
      [this, &modules, &error_at](
          const std::unordered_map<std::string, ModuleSyms>& sources,
          bool final_round) {
        for (const Module* m : modules) {
          auto& syms = modules_[m->name];
          auto process_use = [&](const UseStmt& use) {
            auto sit = sources.find(use.module);
            if (sit == sources.end()) {
              if (final_round) {
                error_at(use.line, "module '" + m->name +
                                       "' uses unknown module '" +
                                       use.module + "'");
              }
              return;
            }
            const auto& src = sit->second;
            auto import_one = [&](const std::string& local,
                                  const std::string& remote) {
              bool found = false;
              auto pit = src.procs.find(remote);
              if (pit != src.procs.end()) {
                found = true;
                auto& vec = syms.procs[local];
                for (const ProcRef& r : pit->second) {
                  const bool present =
                      std::any_of(vec.begin(), vec.end(),
                                  [&](const ProcRef& x) { return x.sp == r.sp; });
                  if (!present) vec.push_back(r);
                }
              }
              auto vit = src.vars.find(remote);
              if (vit != src.vars.end()) {
                found = true;
                syms.vars.emplace(local, vit->second);
              }
              auto tit = src.types.find(remote);
              if (tit != src.types.end()) {
                found = true;
                syms.types.emplace(local, tit->second);
              }
              if (!found && final_round) {
                error_at(use.line, "use of unknown entity '" + remote +
                                       "' from module '" + use.module + "'");
              }
            };
            if (use.has_only) {
              for (const auto& r : use.renames) import_one(r.local, r.remote);
            } else {
              for (const auto& [name, _] : src.procs) import_one(name, name);
              for (const auto& [name, _] : src.vars) import_one(name, name);
              for (const auto& [name, _] : src.types) import_one(name, name);
            }
          };
          for (const auto& use : m->uses) process_use(use);
          for (const auto& sp : m->subprograms) {
            for (const auto& use : sp.uses) process_use(use);
          }
        }
      };
  const std::unordered_map<std::string, ModuleSyms> own_exports = modules_;
  apply_imports(own_exports, false);
  const std::unordered_map<std::string, ModuleSyms> with_direct = modules_;
  apply_imports(with_direct, true);
}

const ProgramSymbols::ModuleSyms* ProgramSymbols::module(
    const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : &it->second;
}

const IntrinsicInfo* find_intrinsic(const std::string& name) {
  using I = Intrinsic;
  static const std::unordered_map<std::string, IntrinsicInfo> kIntrinsics = {
      {"abs", {I::kAbs, false}},       {"sqrt", {I::kSqrt, true}},
      {"exp", {I::kExp, true}},        {"log", {I::kLog, true}},
      {"log10", {I::kLog10, true}},    {"sin", {I::kSin, true}},
      {"cos", {I::kCos, true}},        {"tan", {I::kTan, true}},
      {"tanh", {I::kTanh, true}},      {"min", {I::kMin, false}},
      {"max", {I::kMax, false}},       {"mod", {I::kMod, false}},
      {"sign", {I::kSign, false}},     {"floor", {I::kFloor, false}},
      {"nint", {I::kNint, false}},     {"aint", {I::kAint, false}},
      {"int", {I::kInt, false}},       {"real", {I::kReal, false}},
      {"sum", {I::kSum, false}},       {"minval", {I::kMinval, false}},
      {"maxval", {I::kMaxval, false}}, {"size", {I::kSize, false}},
      {"merge", {I::kMerge, false}},
  };
  auto it = kIntrinsics.find(name);
  return it == kIntrinsics.end() ? nullptr : &it->second;
}

RefBinding classify_ref(const ProgramSymbols::ModuleSyms* syms, const Expr& e,
                        bool is_local) {
  if (is_local) return {RefKind::kLocal, nullptr, nullptr};
  const std::string& base = e.base_name();
  if (syms != nullptr) {
    auto vit = syms->vars.find(base);
    if (vit != syms->vars.end()) {
      return {RefKind::kModuleVar, &vit->second, nullptr};
    }
  }
  if (!e.is_call_or_index()) return {};
  if (syms != nullptr) {
    auto pit = syms->procs.find(base);
    if (pit != syms->procs.end()) {
      return {RefKind::kProcedure, nullptr, &pit->second};
    }
  }
  if (const IntrinsicInfo* fn = find_intrinsic(base)) {
    return {RefKind::kIntrinsic, nullptr, nullptr, fn};
  }
  return {RefKind::kUnresolved, nullptr, nullptr};
}

RefBinding classify_call(const ProgramSymbols::ModuleSyms* syms,
                         const std::string& callee) {
  if (callee == kOutfld || callee == kRandUniform) {
    return {RefKind::kBuiltin, nullptr, nullptr};
  }
  if (syms != nullptr) {
    auto pit = syms->procs.find(callee);
    if (pit != syms->procs.end()) {
      return {RefKind::kProcedure, nullptr, &pit->second};
    }
  }
  return {RefKind::kUnresolved, nullptr, nullptr};
}

}  // namespace rca::lang

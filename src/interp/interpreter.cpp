#include "interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "lang/symbols.hpp"
#include "support/strings.hpp"

namespace rca::interp {

using lang::Expr;
using lang::ExprKind;
using lang::Module;
using lang::Op;
using lang::RefSegment;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::TypeKind;
using lang::VarDecl;

double WatchStats::rms() const {
  if (count == 0) return 0.0;
  return std::sqrt(sum_sq / static_cast<double>(count));
}

double WatchStats::mean() const {
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

void CoverageRecorder::record(const std::string& module,
                              const std::string& subprogram) {
  modules_.insert(module);
  if (!subprogram.empty()) subprograms_.insert(module + "::" + subprogram);
}

bool CoverageRecorder::module_executed(const std::string& module) const {
  return modules_.count(module) != 0;
}

bool CoverageRecorder::subprogram_executed(const std::string& module,
                                           const std::string& sub) const {
  return subprograms_.count(module + "::" + sub) != 0;
}

void CoverageRecorder::clear() {
  modules_.clear();
  subprograms_.clear();
}

namespace {

enum class Flow { kNormal, kReturn, kExit, kCycle };

bool is_slice_marker(const Expr& e) {
  return e.is_ref() && e.segments.size() == 1 &&
         e.segments[0].name == "__slice__" && !e.segments[0].has_args;
}

[[noreturn]] void fail(const std::string& msg, int line = 0) {
  if (line > 0) throw EvalError(strfmt("line %d: %s", line, msg.c_str()));
  throw EvalError(msg);
}

/// The real function an elemental intrinsic applies, or null. `abs` keeps
/// an integer argument integer.
double (*elemental(lang::Intrinsic id))(double) {
  using lang::Intrinsic;
  switch (id) {
    case Intrinsic::kAbs: return [](double x) { return std::abs(x); };
    case Intrinsic::kSqrt: return [](double x) { return std::sqrt(x); };
    case Intrinsic::kExp: return [](double x) { return std::exp(x); };
    case Intrinsic::kLog: return [](double x) { return std::log(x); };
    case Intrinsic::kLog10: return [](double x) { return std::log10(x); };
    case Intrinsic::kSin: return [](double x) { return std::sin(x); };
    case Intrinsic::kCos: return [](double x) { return std::cos(x); };
    case Intrinsic::kTan: return [](double x) { return std::tan(x); };
    case Intrinsic::kTanh: return [](double x) { return std::tanh(x); };
    case Intrinsic::kAint: return [](double x) { return std::trunc(x); };
    default: return nullptr;
  }
}

}  // namespace

// ===========================================================================
// Impl
// ===========================================================================

struct Interpreter::Impl {
  /// What a reference denotes: its value slot and the scope that owns it,
  /// the watch identity of an assignment through it. A module scope maps
  /// each own or use-imported variable or parameter, as
  /// `lang::ProgramSymbols` binds it, to its home module's storage, which
  /// stays null until the load evaluates (parameters) or allocates
  /// (variables) it.
  struct VarRef {
    const ValueSlot* slot = nullptr;  // null: no variable in scope
    const Module* module = nullptr;
    const Subprogram* sub = nullptr;  // null for module-level variables
    bool is_param = false;

    explicit operator bool() const { return slot != nullptr; }

    /// The slot to alias: a parameter reads as a temporary, so no callee or
    /// store can change it.
    ValueSlot alias() const {
      return is_param ? std::make_shared<Value>(**slot) : *slot;
    }
  };

  struct ModuleCtx {
    const Module* ast = nullptr;
    const lang::ProgramSymbols::ModuleSyms* syms = nullptr;
    bool fma = false;
    bool reassoc = false;
    std::unordered_map<std::string, ValueSlot> vars;    // own variables
    std::unordered_map<std::string, ValueSlot> params;  // own parameters
    std::unordered_map<std::string, VarRef> scope;      // every visible one
    // Per own subprogram: has it run since coverage was last read?
    std::vector<char> ran;
  };

  struct Frame {
    ModuleCtx* module = nullptr;
    const Subprogram* sub = nullptr;
    std::unordered_map<std::string, ValueSlot> locals;
  };

  Impl(Interpreter* owner,
       std::shared_ptr<const lang::ProgramSymbols> symbols)
      : owner_(owner), symbols_(std::move(symbols)) {}

  Interpreter* owner_;
  const std::shared_ptr<const lang::ProgramSymbols> symbols_;
  std::unordered_map<const Module*, ModuleCtx> modules_;
  bool any_watches_ = false;
  // Subprograms in the order they first ran since coverage was last read.
  std::vector<lang::ProcRef> first_runs_;

  ModuleCtx& ctx(const Module* m) { return modules_.find(m)->second; }

  /// Records the subprograms run since the last flush in `coverage`, in
  /// first-run order: the name sets one `record` per call would give.
  void flush_coverage(CoverageRecorder& coverage) {
    for (const lang::ProcRef& c : first_runs_) {
      coverage.record(c.module->name, c.sp->name);
      ctx(c.module).ran[c.sp - c.module->subprograms.data()] = 0;
    }
    first_runs_.clear();
  }

  /// Module `name` for public entry point `api`; throws for unknown names.
  ModuleCtx& module_named(const char* api, const std::string& name) {
    const auto* syms = symbols_->module(name);
    if (syms == nullptr) {
      throw EvalError(std::string(api) + ": unknown module '" + name + "'");
    }
    return ctx(syms->ast);
  }

  // -------------------------------------------------------------------------
  // Initialization.
  // -------------------------------------------------------------------------

  void load(const std::vector<const Module*>& mods) {
    if (!symbols_->errors().empty()) fail(symbols_->errors().front());
    for (const Module* m : mods) {
      ModuleCtx& c = modules_[m];
      c.ast = m;
      c.syms = symbols_->module(m->name);
      c.ran.assign(m->subprograms.size(), 0);
      for (const auto& d : m->decls) {
        (d.is_parameter ? c.params : c.vars)[d.name] = nullptr;
      }
    }
    // Module scopes: every name the table binds to a module variable points
    // at its owner's storage, filled below.
    for (auto& [m, c] : modules_) {
      for (const auto& [local, binding] : c.syms->vars) {
        ModuleCtx& home = ctx(binding.first);
        auto vit = home.vars.find(binding.second);
        if (vit != home.vars.end()) {
          c.scope[local] = VarRef{&vit->second, home.ast, nullptr, false};
        } else {
          c.scope[local] =
              VarRef{&home.params.at(binding.second), home.ast, nullptr, true};
        }
      }
    }
    // Evaluate parameter constants to a fixpoint (they may reference
    // imported parameters that are themselves not yet evaluated).
    for (;;) {
      bool progress = false;
      bool pending = false;
      for (const Module* m : mods) {
        ModuleCtx& c = ctx(m);
        for (const auto& d : m->decls) {
          if (!d.is_parameter) continue;
          ValueSlot& slot = c.params.at(d.name);
          if (slot) continue;
          if (!d.init) fail("parameter '" + d.name + "' lacks a value", d.line);
          Frame f;
          f.module = &c;
          try {
            slot = std::make_shared<Value>(eval(*d.init, f));
            progress = true;
          } catch (const EvalError&) {
            pending = true;  // dependency not ready yet; retry next round
          }
        }
      }
      if (!pending) break;
      if (!progress) fail("circular or unresolvable parameter definitions");
    }
    // Allocate module variables.
    for (const Module* m : mods) {
      ModuleCtx& c = ctx(m);
      Frame f;
      f.module = &c;
      for (const auto& d : m->decls) {
        if (d.is_parameter) continue;
        c.vars.at(d.name) = std::make_shared<Value>(allocate(d, f));
      }
    }
  }

  /// Allocate a value per declaration, evaluating array extents in `frame`.
  Value allocate(const VarDecl& d, Frame& frame) {
    if (d.type.kind == TypeKind::kDerived) {
      const auto& types = frame.module->syms->types;
      auto tit = types.find(d.type.derived_name);
      if (tit == types.end()) {
        fail("unknown derived type '" + d.type.derived_name + "'", d.line);
      }
      Value v;
      v.kind = Value::Kind::kDerived;
      v.derived = std::make_shared<DerivedValue>();
      v.derived->type_name = d.type.derived_name;
      Frame type_frame;
      type_frame.module = &ctx(tit->second.module);
      for (const auto& comp : tit->second.def->components) {
        v.derived->components[comp.name] =
            std::make_shared<Value>(allocate(comp, type_frame));
      }
      return v;
    }
    if (d.is_array()) {
      std::vector<long long> dims;
      for (const auto& dim : d.dims) {
        dims.push_back(eval(*dim, frame).as_int());
      }
      Value v = Value::make_array(std::move(dims));
      if (d.init) {
        const Value init = eval(*d.init, frame);
        std::fill(v.array.begin(), v.array.end(), init.as_real());
      }
      return v;
    }
    Value v;
    switch (d.type.kind) {
      case TypeKind::kReal: v = Value::make_real(0.0); break;
      case TypeKind::kInteger: v = Value::make_int(0); break;
      case TypeKind::kLogical: v = Value::make_logical(false); break;
      case TypeKind::kCharacter: v = Value::make_char(""); break;
      case TypeKind::kDerived: break;  // handled above
    }
    if (d.init) {
      const Value init = eval(*d.init, frame);
      switch (v.kind) {
        case Value::Kind::kReal: v.real = init.as_real(); break;
        case Value::Kind::kInt: v.integer = init.as_int(); break;
        case Value::Kind::kLogical: v.logical = init.as_logical(); break;
        case Value::Kind::kChar: v.chars = init.chars; break;
        default: break;
      }
    }
    return v;
  }

  // -------------------------------------------------------------------------
  // Name resolution.
  // -------------------------------------------------------------------------

  /// Variable `name` in scope: a local of the frame's subprogram, owned by
  /// it, else a module-level variable or parameter, owned by its home
  /// module.
  static VarRef lookup(Frame& frame, const std::string& name) {
    auto lit = frame.locals.find(name);
    if (lit != frame.locals.end()) {
      return {&lit->second, frame.module->ast, frame.sub, false};
    }
    auto sit = frame.module->scope.find(name);
    if (sit == frame.module->scope.end() || !*sit->second.slot) return {};
    return sit->second;
  }

  /// The one reference resolver: the slot reference `e` names, before the
  /// last segment's subscripts apply. A derived-type chain resolves through
  /// its components and is owned by the site, the frame's scope; a
  /// single-segment name that is no variable resolves to nothing.
  static VarRef resolve(const Expr& e, Frame& frame) {
    const RefSegment& head = e.segments.front();
    if (e.segments.size() == 1) return lookup(frame, head.name);
    if (head.has_args) {
      fail("indexed derived-type bases are not supported ('" + head.name +
           "(...)%...')", e.line);
    }
    const VarRef base = lookup(frame, head.name);
    if (!base) fail("unknown name '" + head.name + "'", e.line);
    const ValueSlot* slot = base.slot;
    for (std::size_t i = 1; i < e.segments.size(); ++i) {
      const Value& v = **slot;
      if (v.kind != Value::Kind::kDerived) {
        fail("'%" + e.segments[i].name + "' applied to non-derived value",
             e.line);
      }
      auto cit = v.derived->components.find(e.segments[i].name);
      if (cit == v.derived->components.end()) {
        fail("derived type '" + v.derived->type_name +
             "' has no component '" + e.segments[i].name + "'", e.line);
      }
      if (i + 1 < e.segments.size() && e.segments[i].has_args) {
        fail("indexed intermediate derived-type components are not supported",
             e.line);
      }
      slot = &cit->second;
    }
    return {slot, frame.module->ast, frame.sub, false};
  }

  // -------------------------------------------------------------------------
  // Expression evaluation.
  // -------------------------------------------------------------------------

  Value eval(const Expr& e, Frame& frame) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return e.is_int ? Value::make_int(static_cast<long long>(e.number))
                        : Value::make_real(e.number);
      case ExprKind::kString:
        return Value::make_char(e.text);
      case ExprKind::kLogical:
        return Value::make_logical(e.bool_value);
      case ExprKind::kRef:
        return eval_ref(e, frame);
      case ExprKind::kUnary: {
        Value v = eval(*e.rhs, frame);
        return apply_unary(e.op, std::move(v), e.line);
      }
      case ExprKind::kBinary:
        return eval_binary(e, frame);
    }
    fail("unreachable expression kind", e.line);
  }

  Value eval_binary(const Expr& e, Frame& frame) {
    // FMA contraction: when the module is compiled with FMA enabled,
    // a*b + c (either order) and a*b - c are evaluated with one rounding,
    // as AVX2/FMA codegen would do.
    if (frame.module->fma && (e.op == Op::kAdd || e.op == Op::kSub)) {
      const Expr* mul = nullptr;
      const Expr* addend = nullptr;
      bool mul_on_left = false;
      if (e.lhs->kind == ExprKind::kBinary && e.lhs->op == Op::kMul) {
        mul = e.lhs.get();
        addend = e.rhs.get();
        mul_on_left = true;
      } else if (e.op == Op::kAdd && e.rhs->kind == ExprKind::kBinary &&
                 e.rhs->op == Op::kMul) {
        mul = e.rhs.get();
        addend = e.lhs.get();
      }
      if (mul) {
        Value a = eval(*mul->lhs, frame);
        Value b = eval(*mul->rhs, frame);
        Value c = eval(*addend, frame);
        // a*b + c ; a*b - c (mul left) ; c + a*b.
        const double sign = (e.op == Op::kSub && mul_on_left) ? -1.0 : 1.0;
        if (!a.is_array() && !b.is_array() && !c.is_array() &&
            (a.kind == Value::Kind::kReal || b.kind == Value::Kind::kReal ||
             c.kind == Value::Kind::kReal)) {
          return Value::make_real(std::fma(a.as_real(), b.as_real(),
                                           sign * c.as_real()));
        }
        if (a.is_array() || b.is_array() || c.is_array()) {
          return broadcast_fma(a, b, c, sign, e.line);
        }
        // Integer-only falls through to exact arithmetic below.
      }
    }

    // Reassociation: when the module is compiled with aggressive FP
    // reassociation, a left-associated chain of three or more +/- terms is
    // summed right-to-left instead of the source's left-to-right order —
    // the association change -Ofast-style codegen is allowed to make. Only
    // the left spine is flattened, matching analysis/fpsense's site shape;
    // operands are still evaluated in source order.
    if (frame.module->reassoc && (e.op == Op::kAdd || e.op == Op::kSub) &&
        e.lhs->kind == ExprKind::kBinary &&
        (e.lhs->op == Op::kAdd || e.lhs->op == Op::kSub)) {
      return eval_reassociated(e, frame);
    }

    Value lhs = eval(*e.lhs, frame);
    Value rhs = eval(*e.rhs, frame);
    return apply_binary(e.op, std::move(lhs), std::move(rhs), e.line);
  }

  // Collects the left-spine terms of a +/- chain in source order, with the
  // sign each term carries in the left-associated sum.
  static void flatten_sum(const Expr& e,
                          std::vector<std::pair<const Expr*, int>>* terms) {
    if (e.kind == ExprKind::kBinary && (e.op == Op::kAdd || e.op == Op::kSub)) {
      flatten_sum(*e.lhs, terms);
      terms->emplace_back(e.rhs.get(), e.op == Op::kSub ? -1 : 1);
      return;
    }
    terms->emplace_back(&e, 1);
  }

  Value eval_reassociated(const Expr& e, Frame& frame) {
    std::vector<std::pair<const Expr*, int>> terms;
    flatten_sum(e, &terms);
    // Evaluate every term in source order (left-to-right), then fold the
    // signed sum right-to-left: s0*v0 + (s1*v1 + (... + sn*vn)). Integer-only
    // chains are exact either way; FP chains round differently.
    std::vector<Value> values;
    values.reserve(terms.size());
    for (const auto& [expr, sign] : terms) {
      Value v = eval(*expr, frame);
      if (sign < 0) v = apply_unary(Op::kNeg, std::move(v), e.line);
      values.push_back(std::move(v));
    }
    Value acc = std::move(values.back());
    for (std::size_t i = values.size() - 1; i-- > 0;) {
      acc = apply_binary(Op::kAdd, std::move(values[i]), std::move(acc),
                         e.line);
    }
    return acc;
  }

  Value broadcast_fma(const Value& a, const Value& b, const Value& c,
                      double sign, int line) {
    const std::size_t n = std::max({a.is_array() ? a.array.size() : 0,
                                    b.is_array() ? b.array.size() : 0,
                                    c.is_array() ? c.array.size() : 0});
    auto at = [n, line](const Value& v, std::size_t i) {
      if (!v.is_array()) return v.as_real();
      if (v.array.size() != n) fail("array size mismatch in expression", line);
      return v.array[i];
    };
    Value out = Value::make_array({static_cast<long long>(n)});
    if (a.is_array()) out.dims = a.dims;
    else if (b.is_array()) out.dims = b.dims;
    else out.dims = c.dims;
    out.array.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.array[i] = std::fma(at(a, i), at(b, i), sign * at(c, i));
    }
    return out;
  }

  Value apply_unary(Op op, Value v, int line) {
    switch (op) {
      case Op::kNeg:
        if (v.is_array()) {
          for (double& x : v.array) x = -x;
          return v;
        }
        if (v.kind == Value::Kind::kInt) return Value::make_int(-v.integer);
        return Value::make_real(-v.as_real());
      case Op::kPlusSign:
        return v;
      case Op::kNot:
        return Value::make_logical(!v.as_logical());
      default:
        fail("bad unary operator", line);
    }
  }

  Value apply_binary(Op op, Value lhs, Value rhs, int line) {
    switch (op) {
      case Op::kAnd:
        return Value::make_logical(lhs.as_logical() && rhs.as_logical());
      case Op::kOr:
        return Value::make_logical(lhs.as_logical() || rhs.as_logical());
      default:
        break;
    }
    if (lhs.is_array() || rhs.is_array()) {
      return broadcast_arith(op, lhs, rhs, line);
    }
    const bool both_int =
        lhs.kind == Value::Kind::kInt && rhs.kind == Value::Kind::kInt;
    switch (op) {
      case Op::kAdd:
        return both_int ? Value::make_int(lhs.integer + rhs.integer)
                        : Value::make_real(lhs.as_real() + rhs.as_real());
      case Op::kSub:
        return both_int ? Value::make_int(lhs.integer - rhs.integer)
                        : Value::make_real(lhs.as_real() - rhs.as_real());
      case Op::kMul:
        return both_int ? Value::make_int(lhs.integer * rhs.integer)
                        : Value::make_real(lhs.as_real() * rhs.as_real());
      case Op::kDiv:
        if (both_int) {
          if (rhs.integer == 0) fail("integer division by zero", line);
          return Value::make_int(lhs.integer / rhs.integer);
        }
        return Value::make_real(lhs.as_real() / rhs.as_real());
      case Op::kPow:
        if (both_int && rhs.integer >= 0) {
          long long result = 1, base = lhs.integer, exp = rhs.integer;
          while (exp > 0) {
            if (exp & 1) result *= base;
            base *= base;
            exp >>= 1;
          }
          return Value::make_int(result);
        }
        return Value::make_real(std::pow(lhs.as_real(), rhs.as_real()));
      case Op::kEq:
        return Value::make_logical(lhs.as_real() == rhs.as_real());
      case Op::kNe:
        return Value::make_logical(lhs.as_real() != rhs.as_real());
      case Op::kLt:
        return Value::make_logical(lhs.as_real() < rhs.as_real());
      case Op::kLe:
        return Value::make_logical(lhs.as_real() <= rhs.as_real());
      case Op::kGt:
        return Value::make_logical(lhs.as_real() > rhs.as_real());
      case Op::kGe:
        return Value::make_logical(lhs.as_real() >= rhs.as_real());
      default:
        fail("bad binary operator", line);
    }
  }

  Value broadcast_arith(Op op, const Value& lhs, const Value& rhs, int line) {
    const Value* arr = lhs.is_array() ? &lhs : &rhs;
    const std::size_t n = arr->array.size();
    if (lhs.is_array() && rhs.is_array() &&
        lhs.array.size() != rhs.array.size()) {
      fail("array size mismatch in expression", line);
    }
    auto at = [](const Value& v, std::size_t i) {
      return v.is_array() ? v.array[i] : v.as_real();
    };
    Value out = *arr;  // copy shape
    for (std::size_t i = 0; i < n; ++i) {
      const double a = at(lhs, i);
      const double b = at(rhs, i);
      double r = 0.0;
      switch (op) {
        case Op::kAdd: r = a + b; break;
        case Op::kSub: r = a - b; break;
        case Op::kMul: r = a * b; break;
        case Op::kDiv: r = a / b; break;
        case Op::kPow: r = std::pow(a, b); break;
        default:
          fail("operator not supported on arrays", line);
      }
      out.array[i] = r;
    }
    return out;
  }

  // Reference evaluation: variable access, array element/slice, derived-type
  // chains, intrinsic calls and user function calls.
  Value eval_ref(const Expr& e, Frame& frame) {
    const VarRef r = resolve(e, frame);
    return r ? read(r, e, frame) : eval_call(e, frame);
  }

  /// The value `e` reads through its resolution `r`.
  Value read(const VarRef& r, const Expr& e, Frame& frame) {
    const RefSegment& last = e.segments.back();
    if (!last.has_args) return **r.slot;
    // Subscripts may call a function that replaces the derived value
    // holding a component slot: keep the array alive across them.
    const ValueSlot array = *r.slot;
    return index_or_slice(*array, last.args, frame, e.line);
  }

  /// A single-segment reference that names no variable: a user function or
  /// an intrinsic call.
  Value eval_call(const Expr& e, Frame& frame) {
    const RefSegment& head = e.segments.front();
    const lang::RefBinding b =
        lang::classify_ref(frame.module->syms, e, /*is_local=*/false);
    if (b.kind == lang::RefKind::kProcedure) {
      return *call_user(*b.procs, head.args, true, head.name, frame, e.line);
    }
    if (b.kind == lang::RefKind::kIntrinsic) {
      return call_intrinsic(head.name, *b.intrinsic, head.args, frame, e.line);
    }
    fail("unknown name '" + head.name + "' in module '" +
         frame.module->ast->name + "'", e.line);
  }

  /// Subscripts `args` evaluated against array `v`: the one walker behind
  /// gather (`index_or_slice`) and scatter (`store_indexed`). A slice
  /// marker `:` selects its whole dimension; without one the selection is
  /// the single element at `subs`.
  struct Selection {
    std::vector<long long> subs;           // sliced entries rewritten by at()
    std::vector<std::size_t> slice_dims;   // empty: one element
    long long count = 1;                   // elements selected

    bool element() const { return slice_dims.empty(); }

    /// Flat index into `v` of the `i`-th selected element, in row-major
    /// order over the sliced dimensions.
    std::size_t at(const Value& v, long long i) {
      for (std::size_t si = slice_dims.size(); si-- > 0;) {
        const std::size_t k = slice_dims[si];
        subs[k] = i % v.dims[k] + 1;
        i /= v.dims[k];
      }
      return v.flat_index(subs);
    }
  };

  Selection select(const Value& v, const std::vector<lang::ExprPtr>& args,
                   Frame& frame, int line) {
    Selection sel;
    sel.subs.reserve(args.size());
    for (std::size_t k = 0; k < args.size(); ++k) {
      if (is_slice_marker(*args[k])) {
        sel.slice_dims.push_back(k);
        sel.subs.push_back(0);
      } else {
        sel.subs.push_back(eval(*args[k], frame).as_int());
      }
    }
    if (sel.element()) return sel;
    if (args.size() != v.dims.size()) fail("rank mismatch in slice", line);
    for (std::size_t k : sel.slice_dims) sel.count *= v.dims[k];
    return sel;
  }

  Value index_or_slice(const Value& v,
                       const std::vector<lang::ExprPtr>& args, Frame& frame,
                       int line) {
    if (!v.is_array()) fail("subscripts applied to a scalar", line);
    Selection sel = select(v, args, frame, line);
    if (sel.element()) return Value::make_real(v.array[v.flat_index(sel.subs)]);
    Value out = Value::make_array({sel.count});
    for (long long i = 0; i < sel.count; ++i) {
      out.array[static_cast<std::size_t>(i)] = v.array[sel.at(v, i)];
    }
    return out;
  }

  // -------------------------------------------------------------------------
  // Intrinsics.
  // -------------------------------------------------------------------------

  Value call_intrinsic(const std::string& name, const lang::IntrinsicInfo& fn,
                       const std::vector<lang::ExprPtr>& arg_exprs,
                       Frame& frame, int line) {
    using lang::Intrinsic;
    std::vector<Value> args;
    args.reserve(arg_exprs.size());
    for (const auto& a : arg_exprs) args.push_back(eval(*a, frame));
    auto need = [&](std::size_t n) {
      if (args.size() != n) {
        fail(strfmt("intrinsic %s expects %zu arguments", name.c_str(), n),
             line);
      }
    };
    if (double (*f)(double) = elemental(fn.id)) {
      need(1);
      if (args[0].is_array()) {
        Value out = args[0];
        for (double& x : out.array) x = f(x);
        return out;
      }
      if (fn.id == Intrinsic::kAbs && args[0].kind == Value::Kind::kInt) {
        return Value::make_int(std::llabs(args[0].integer));
      }
      return Value::make_real(f(args[0].as_real()));
    }
    switch (fn.id) {
      case Intrinsic::kMin:
      case Intrinsic::kMax: {
        if (args.size() < 2) fail("min/max need at least 2 arguments", line);
        bool any_array = false;
        std::size_t n = 0;
        for (const auto& a : args) {
          if (a.is_array()) {
            any_array = true;
            n = a.array.size();
          }
        }
        const bool is_min = fn.id == Intrinsic::kMin;
        if (!any_array) {
          bool all_int = true;
          for (const auto& a : args) all_int &= (a.kind == Value::Kind::kInt);
          double best = args[0].as_real();
          for (const auto& a : args) {
            best = is_min ? std::min(best, a.as_real())
                          : std::max(best, a.as_real());
          }
          return all_int ? Value::make_int(static_cast<long long>(best))
                         : Value::make_real(best);
        }
        Value out = Value::make_array({static_cast<long long>(n)});
        for (const auto& a : args) {
          if (a.is_array()) {
            out.dims = a.dims;
            break;
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          double best =
              args[0].is_array() ? args[0].array[i] : args[0].as_real();
          for (const auto& a : args) {
            const double x = a.is_array() ? a.array[i] : a.as_real();
            best = is_min ? std::min(best, x) : std::max(best, x);
          }
          out.array[i] = best;
        }
        return out;
      }
      case Intrinsic::kMod:
        need(2);
        if (args[0].kind == Value::Kind::kInt &&
            args[1].kind == Value::Kind::kInt) {
          if (args[1].integer == 0) fail("mod by zero", line);
          return Value::make_int(args[0].integer % args[1].integer);
        }
        return Value::make_real(
            std::fmod(args[0].as_real(), args[1].as_real()));
      case Intrinsic::kSign: {
        need(2);
        const double mag = std::abs(args[0].as_real());
        return Value::make_real(args[1].as_real() >= 0.0 ? mag : -mag);
      }
      case Intrinsic::kFloor:
        need(1);
        return Value::make_int(
            static_cast<long long>(std::floor(args[0].as_real())));
      case Intrinsic::kNint:
        need(1);
        return Value::make_int(std::llround(args[0].as_real()));
      case Intrinsic::kInt:
        need(1);
        return Value::make_int(args[0].as_int());
      case Intrinsic::kReal:
        need(1);
        return Value::make_real(args[0].as_real());
      case Intrinsic::kSum: {
        need(1);
        if (!args[0].is_array()) return args[0];
        double s = 0.0;
        for (double x : args[0].array) s += x;
        return Value::make_real(s);
      }
      case Intrinsic::kMinval:
      case Intrinsic::kMaxval: {
        need(1);
        if (!args[0].is_array() || args[0].array.empty()) {
          fail(name + " requires a non-empty array", line);
        }
        auto [mn, mx] =
            std::minmax_element(args[0].array.begin(), args[0].array.end());
        return Value::make_real(fn.id == Intrinsic::kMinval ? *mn : *mx);
      }
      case Intrinsic::kSize:
        need(1);
        if (!args[0].is_array()) return Value::make_int(1);
        return Value::make_int(static_cast<long long>(args[0].array.size()));
      case Intrinsic::kMerge:
        need(3);
        return args[2].as_logical() ? args[0] : args[1];
      default:  // the elemental ones, applied above
        break;
    }
    fail("unknown intrinsic '" + name + "'", line);
  }

  // -------------------------------------------------------------------------
  // Calls.
  // -------------------------------------------------------------------------

  struct Binding {
    ValueSlot slot;
    // Copy-out target for array-element / slice / component-element actuals.
    const Expr* writeback = nullptr;
  };

  /// Calls the first candidate that binds a site with `args`.
  ValueSlot call_user(const std::vector<lang::ProcRef>& cands,
                      const std::vector<lang::ExprPtr>& args,
                      bool function_context, const std::string& name,
                      Frame& caller, int line) {
    for (const auto& c : cands) {
      if (!lang::binds_call(*c.sp, args.size(), function_context)) continue;
      return invoke(args, caller, [&](const std::vector<Binding>& actuals) {
        return run(c, actuals);
      });
    }
    fail(strfmt("no %s '%s' accepts %zu arguments",
                function_context ? "function" : "subroutine", name.c_str(),
                args.size()),
         line);
  }

  /// The one argument binder, for user procedures and builtins alike: binds
  /// `args` in `caller`, hands the bindings to `callee`, then copies
  /// element/slice actuals back out. Returns what `callee` returns: the
  /// function result slot, else an empty slot.
  template <typename Callee>
  ValueSlot invoke(const std::vector<lang::ExprPtr>& args, Frame& caller,
                   Callee&& callee) {
    std::vector<Binding> bindings;
    bindings.reserve(args.size());
    for (const auto& a : args) bindings.push_back(bind_argument(*a, caller));
    ValueSlot result = callee(bindings);
    for (const auto& b : bindings) {
      if (b.writeback) {
        assign_to_ref(*b.writeback, *b.slot, caller, /*record_watch=*/false);
      }
    }
    return result;
  }

  /// The one frame setup: binds the dummies to `actuals`, allocates the
  /// locals and the function result, and runs the body.
  ValueSlot run(const lang::ProcRef& c, const std::vector<Binding>& actuals) {
    const Subprogram& sp = *c.sp;
    Frame frame;
    frame.module = &ctx(c.module);
    frame.sub = &sp;

    char& ran = frame.module->ran[&sp - c.module->subprograms.data()];
    if (!ran) {
      ran = 1;
      first_runs_.push_back(c);
    }

    for (std::size_t i = 0; i < actuals.size(); ++i) {
      frame.locals[sp.params[i]] = actuals[i].slot;
    }
    // Allocate locals (skip dummies; allocate the function result).
    // Each name is hashed once: its slot is inserted empty, then filled.
    // Map elements stay put when the map grows, so slots can be kept.
    for (const auto& d : sp.decls) {
      auto [it, inserted] = frame.locals.try_emplace(d.name);
      if (!inserted) continue;  // dummy argument
      ValueSlot& slot = it->second;
      if (d.is_parameter) {
        Frame pf;
        pf.module = frame.module;
        slot = std::make_shared<Value>(eval(*d.init, pf));
      } else {
        slot = std::make_shared<Value>(allocate(d, frame));
      }
    }
    ValueSlot* result = nullptr;
    if (sp.is_function()) {
      auto [it, inserted] = frame.locals.try_emplace(sp.result_name);
      if (inserted) it->second = std::make_shared<Value>(Value::make_real(0.0));
      result = &it->second;
    }

    for (const auto& st : sp.body) {
      if (exec(*st, frame) == Flow::kReturn) break;
    }
    if (result != nullptr) return *result;
    return {};
  }

  /// Fortran-style argument association: whole variables (including derived
  /// components) alias; element/slice/expression actuals get a temp with
  /// copy-out for the writable cases.
  Binding bind_argument(const Expr& actual, Frame& caller) {
    if (!actual.is_ref()) {
      return Binding{std::make_shared<Value>(eval(actual, caller)), nullptr};
    }
    const VarRef r = resolve(actual, caller);
    // A name that is no variable is a function reference: an expression.
    if (!r) {
      return Binding{std::make_shared<Value>(eval_call(actual, caller)),
                     nullptr};
    }
    if (!actual.segments.back().has_args) return Binding{r.alias(), nullptr};
    // Array element or slice of a variable: copy-in/copy-out.
    return Binding{std::make_shared<Value>(read(r, actual, caller)), &actual};
  }

  // -------------------------------------------------------------------------
  // Statements.
  // -------------------------------------------------------------------------

  Flow exec(const Stmt& s, Frame& frame) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        Value rhs = eval(*s.rhs, frame);
        assign_to_ref(*s.lhs, rhs, frame, /*record_watch=*/true);
        ++owner_->assignments_executed_;
        return Flow::kNormal;
      }
      case StmtKind::kCall:
        return exec_call(s, frame);
      case StmtKind::kIf: {
        if (eval(*s.cond, frame).as_logical()) {
          return exec_block(s.body, frame);
        }
        for (const auto& ei : s.elseifs) {
          if (eval(*ei.cond, frame).as_logical()) {
            return exec_block(ei.body, frame);
          }
        }
        return exec_block(s.else_body, frame);
      }
      case StmtKind::kDo: {
        const long long from = eval(*s.from, frame).as_int();
        const long long to = eval(*s.to, frame).as_int();
        const long long step = s.step ? eval(*s.step, frame).as_int() : 1;
        if (step == 0) fail("zero do-loop step", s.line);
        const VarRef r = lookup(frame, s.do_var);
        if (!r) fail("undeclared do variable '" + s.do_var + "'", s.line);
        const ValueSlot var = r.alias();
        for (long long i = from; step > 0 ? i <= to : i >= to; i += step) {
          *var = Value::make_int(i);
          const Flow f = exec_block(s.body, frame);
          if (f == Flow::kReturn) return Flow::kReturn;
          if (f == Flow::kExit) break;
          // kCycle falls through to the next iteration.
        }
        return Flow::kNormal;
      }
      case StmtKind::kDoWhile: {
        std::uint64_t guard = 0;
        while (eval(*s.cond, frame).as_logical()) {
          if (++guard > 100000000ull) fail("runaway do-while loop", s.line);
          const Flow f = exec_block(s.body, frame);
          if (f == Flow::kReturn) return Flow::kReturn;
          if (f == Flow::kExit) break;
          // kCycle continues the loop.
        }
        return Flow::kNormal;
      }
      case StmtKind::kReturn:
        return Flow::kReturn;
      case StmtKind::kExit:
        return Flow::kExit;
      case StmtKind::kCycle:
        return Flow::kCycle;
    }
    return Flow::kNormal;
  }

  // Control flow (return/exit/cycle) propagates up through nested blocks;
  // only the enclosing loop consumes exit/cycle.
  Flow exec_block(const std::vector<lang::StmtPtr>& body, Frame& frame) {
    for (const auto& st : body) {
      const Flow f = exec(*st, frame);
      if (f != Flow::kNormal) return f;
    }
    return Flow::kNormal;
  }

  Flow exec_call(const Stmt& s, Frame& frame) {
    const lang::RefBinding b =
        lang::classify_call(frame.module->syms, s.callee);
    if (b.kind == lang::RefKind::kBuiltin) {
      invoke(s.args, frame, [&](const std::vector<Binding>& args) {
        s.callee == lang::kOutfld ? outfld(args) : rand_uniform(args);
        return ValueSlot();
      });
      return Flow::kNormal;
    }
    if (b.kind == lang::RefKind::kProcedure) {
      call_user(*b.procs, s.args, false, s.callee, frame, s.line);
      return Flow::kNormal;
    }
    fail("unknown subroutine '" + s.callee + "' called from module '" +
         frame.module->ast->name + "'", s.line);
  }

  /// `call outfld('LABEL', value)`: history-file output. Records the label
  /// (lower-cased) and the global mean of the value.
  void outfld(const std::vector<Binding>& args) {
    if (args.size() != 2 || args[0].slot->kind != Value::Kind::kChar) {
      throw EvalError("outfld expects (character label, value)");
    }
    const Value& v = *args[1].slot;
    double mean = 0.0;
    if (v.is_array()) {
      if (!v.array.empty()) {
        double s = 0.0;
        for (double x : v.array) s += x;
        mean = s / static_cast<double>(v.array.size());
      }
    } else {
      mean = v.as_real();
    }
    owner_->outputs_.emplace_back(to_lower(args[0].slot->chars), mean);
  }

  /// `call shr_rand_uniform(x)`: fills a scalar or array with uniform
  /// deviates from the configured generator (KISS by default; the RAND-MT
  /// experiment swaps in the Mersenne Twister).
  void rand_uniform(const std::vector<Binding>& args) {
    if (args.size() != 1) {
      throw EvalError("shr_rand_uniform expects one argument");
    }
    Value& v = *args[0].slot;
    if (v.is_array()) {
      for (double& x : v.array) x = owner_->prng_->uniform();
    } else {
      v.kind = Value::Kind::kReal;
      v.real = owner_->prng_->uniform();
    }
  }

  // -------------------------------------------------------------------------
  // Assignment.
  // -------------------------------------------------------------------------

  void assign_to_ref(const Expr& lhs, const Value& rhs, Frame& frame,
                     bool record_watch) {
    const VarRef r = resolve(lhs, frame);
    if (!r) {
      fail("assignment to unknown variable '" + lhs.base_name() + "'",
           lhs.line);
    }
    // The store holds its own slot: a parameter reads as a temporary, and
    // subscripts may call a function that replaces the derived value
    // holding a component slot.
    const ValueSlot dst = r.alias();
    const RefSegment& last = lhs.segments.back();
    if (!last.has_args) {
      store_whole(*dst, rhs, lhs.line);
    } else {
      store_indexed(*dst, last.args, rhs, frame, lhs.line);
    }
    if (record_watch && (owner_->record_assignments_ || any_watches_)) {
      note_assignment(r, lhs.canonical_name(), rhs);
    }
  }

  /// Records an assignment through `r` under its owner's watch identity.
  void note_assignment(const VarRef& r, const std::string& name,
                       const Value& rhs) {
    WatchKey key{r.module->name, r.sub ? r.sub->name : std::string(), name};
    if (owner_->record_assignments_) owner_->assigned_keys_.insert(key);
    if (!any_watches_) return;
    auto wit = owner_->watch_stats_.find(key);
    if (wit == owner_->watch_stats_.end() && !key.subprogram.empty()) {
      // Module-level fallback (the metagraph keys module variables with an
      // empty subprogram).
      key.subprogram.clear();
      wit = owner_->watch_stats_.find(key);
    }
    if (wit == owner_->watch_stats_.end()) return;
    if (rhs.is_array()) {
      for (double v : rhs.array) wit->second.record(v);
    } else if (rhs.is_numeric() || rhs.kind == Value::Kind::kLogical) {
      wit->second.record(rhs.as_real());
    }
  }

  void store_whole(Value& dst, const Value& rhs, int line) {
    switch (dst.kind) {
      case Value::Kind::kReal:
        if (rhs.is_array()) fail("cannot assign array to scalar", line);
        dst.real = rhs.as_real();
        return;
      case Value::Kind::kInt:
        dst.integer = rhs.as_int();
        return;
      case Value::Kind::kLogical:
        dst.logical = rhs.as_logical();
        return;
      case Value::Kind::kChar:
        if (rhs.kind != Value::Kind::kChar) fail("type mismatch", line);
        dst.chars = rhs.chars;
        return;
      case Value::Kind::kArray:
        if (rhs.is_array()) {
          if (rhs.array.size() != dst.array.size()) {
            fail("whole-array assignment size mismatch", line);
          }
          dst.array = rhs.array;
        } else {
          std::fill(dst.array.begin(), dst.array.end(), rhs.as_real());
        }
        return;
      case Value::Kind::kDerived:
        if (rhs.kind != Value::Kind::kDerived) {
          fail("cannot assign scalar to derived value", line);
        }
        // Component-wise deep copy.
        for (auto& [name, comp] : dst.derived->components) {
          auto sit = rhs.derived->components.find(name);
          if (sit != rhs.derived->components.end()) *comp = *sit->second;
        }
        return;
    }
  }

  void store_indexed(Value& dst, const std::vector<lang::ExprPtr>& args,
                     const Value& rhs, Frame& frame, int line) {
    if (!dst.is_array()) fail("subscripted assignment to scalar", line);
    Selection sel = select(dst, args, frame, line);
    if (sel.element()) {
      dst.array[dst.flat_index(sel.subs)] = rhs.as_real();
      return;
    }
    if (rhs.is_array() &&
        rhs.array.size() != static_cast<std::size_t>(sel.count)) {
      fail("slice assignment size mismatch", line);
    }
    for (long long i = 0; i < sel.count; ++i) {
      dst.array[sel.at(dst, i)] =
          rhs.is_array() ? rhs.array[static_cast<std::size_t>(i)]
                         : rhs.as_real();
    }
  }
};

// ===========================================================================
// Public interface.
// ===========================================================================

Interpreter::Interpreter(std::vector<const Module*> modules)
    : Interpreter(modules,
                  std::make_shared<const lang::ProgramSymbols>(modules)) {}

Interpreter::Interpreter(std::vector<const Module*> modules,
                         std::shared_ptr<const lang::ProgramSymbols> symbols)
    : impl_(std::make_unique<Impl>(this, std::move(symbols))),
      prng_(std::make_unique<KissRng>()) {
  impl_->load(modules);
}

Interpreter::~Interpreter() = default;

void Interpreter::set_fma(const std::string& module, bool enabled) {
  impl_->module_named("set_fma", module).fma = enabled;
}

void Interpreter::set_fma_all(bool enabled) {
  for (auto& [m, c] : impl_->modules_) c.fma = enabled;
}

void Interpreter::set_reassoc(const std::string& module, bool enabled) {
  impl_->module_named("set_reassoc", module).reassoc = enabled;
}

void Interpreter::set_reassoc_all(bool enabled) {
  for (auto& [m, c] : impl_->modules_) c.reassoc = enabled;
}

void Interpreter::set_prng(std::unique_ptr<Prng> prng) {
  prng_ = std::move(prng);
}

CoverageRecorder& Interpreter::coverage() {
  impl_->flush_coverage(coverage_);
  return coverage_;
}

const CoverageRecorder& Interpreter::coverage() const {
  impl_->flush_coverage(coverage_);
  return coverage_;
}

void Interpreter::add_watch(const WatchKey& key) {
  watch_stats_.emplace(key, WatchStats{});
  impl_->any_watches_ = true;
}

void Interpreter::clear_watches() {
  watch_stats_.clear();
  impl_->any_watches_ = false;
}

ValueSlot Interpreter::call(const std::string& module,
                            const std::string& subprogram,
                            std::vector<Value> args) {
  const Impl::ModuleCtx& c = impl_->module_named("call", module);
  auto pit = c.syms->procs.find(subprogram);
  if (pit == c.syms->procs.end()) {
    throw EvalError("call: unknown subprogram '" + subprogram +
                    "' in module '" + module + "'");
  }
  auto proc = std::find_if(pit->second.begin(), pit->second.end(),
                           [&args](const lang::ProcRef& r) {
                             return r.sp->params.size() == args.size();
                           });
  if (proc == pit->second.end()) {
    throw EvalError(strfmt("no procedure overload accepts %zu arguments",
                           args.size()));
  }
  std::vector<Impl::Binding> actuals;
  actuals.reserve(args.size());
  for (Value& a : args) {
    actuals.push_back({std::make_shared<Value>(std::move(a)), nullptr});
  }
  return impl_->run(*proc, actuals);
}

ValueSlot Interpreter::module_var(const std::string& module,
                                  const std::string& name) {
  const Impl::ModuleCtx& c = impl_->module_named("module_var", module);
  auto vit = c.vars.find(name);
  if (vit == c.vars.end()) {
    throw EvalError("module_var: unknown variable '" + name + "' in '" +
                    module + "'");
  }
  return vit->second;
}

}  // namespace rca::interp

// Abstract syntax tree for the Fortran subset.
//
// Mirrors the information the paper extracts from fparser ASTs (§4): modules,
// use statements with only-lists and renames, derived types, subprograms,
// assignments whose reference chains carry derived-type component paths and
// (possibly ambiguous) name(...) forms that may be either array indexing or a
// function call — disambiguated later against a hash table of subprogram
// names, exactly as the paper does.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rca::lang {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

// ---------------------------------------------------------------------------
// Types.
// ---------------------------------------------------------------------------

enum class TypeKind { kReal, kInteger, kLogical, kCharacter, kDerived };

struct TypeSpec {
  TypeKind kind = TypeKind::kReal;
  std::string derived_name;  // for kDerived

  bool is_derived() const { return kind == TypeKind::kDerived; }
};

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

enum class ExprKind {
  kNumber,    // literal; `number`, `is_int`
  kString,    // literal; `text`
  kLogical,   // literal; `bool_value`
  kRef,       // reference chain: a, a(i), a%b, a(i)%b%c(j), f(x) [ambiguous]
  kUnary,     // op in `op`, operand in `rhs`
  kBinary,    // op in `op`, operands `lhs`, `rhs`
};

enum class Op {
  kAdd, kSub, kMul, kDiv, kPow,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kNot, kNeg, kPlusSign,
};

const char* op_name(Op op);

/// One segment of a reference chain: `name` optionally followed by
/// parenthesized arguments (array indices or call arguments).
struct RefSegment {
  std::string name;
  bool has_args = false;       // distinguishes `f()` from bare `f`
  std::vector<ExprPtr> args;
};

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  int line = 0;
  int column = 0;
  // End of the expression's source extent: the line of its last token and
  // one past that token's final character (identifiers/strings; other token
  // kinds approximate with their start column). Diagnostics and metagraph
  // node metadata both read these fields, so reported positions agree.
  int end_line = 0;
  int end_column = 0;

  // kNumber / kLogical.
  double number = 0.0;
  bool is_int = false;
  bool bool_value = false;

  // kString.
  std::string text;

  // kRef: at least one segment; segments after the first are derived-type
  // component accesses (`%`).
  std::vector<RefSegment> segments;

  // kUnary / kBinary.
  Op op = Op::kAdd;
  ExprPtr lhs;
  ExprPtr rhs;

  bool is_ref() const { return kind == ExprKind::kRef; }

  /// Base (first-segment) name of a reference chain.
  const std::string& base_name() const { return segments.front().name; }

  /// Final component name — the paper's "canonical name" for derived-type
  /// chains (state%omega -> omega); equals base_name for plain variables.
  const std::string& canonical_name() const { return segments.back().name; }

  /// True for a single-segment reference with arguments: the syntactically
  /// ambiguous `name(...)` form (function call or array element).
  bool is_call_or_index() const {
    return kind == ExprKind::kRef && segments.size() == 1 &&
           segments.front().has_args;
  }
};

// Factory helpers (used by the parser, tests, and corpus generator).
ExprPtr make_number(double v, bool is_int, int line = 0);
ExprPtr make_string(std::string s, int line = 0);
ExprPtr make_logical(bool v, int line = 0);
ExprPtr make_ref(std::string name, int line = 0);
ExprPtr make_binary(Op op, ExprPtr lhs, ExprPtr rhs, int line = 0);
ExprPtr make_unary(Op op, ExprPtr operand, int line = 0);
ExprPtr clone_expr(const Expr& e);

// ---------------------------------------------------------------------------
// Statements.
// ---------------------------------------------------------------------------

enum class StmtKind {
  kAssign,   // lhs = rhs (lhs is a kRef expr)
  kCall,     // call name(args)
  kIf,       // if/elseif/else
  kDo,       // counted do loop
  kDoWhile,  // do while (cond)
  kReturn,
  kExit,     // exit innermost loop
  kCycle,    // next loop iteration
};

struct ElseIf {
  ExprPtr cond;
  std::vector<StmtPtr> body;
};

struct Stmt {
  StmtKind kind = StmtKind::kAssign;
  int line = 0;
  int column = 0;
  int end_line = 0;  // last line of the statement (the `end if` line etc.)

  // kAssign.
  ExprPtr lhs;
  ExprPtr rhs;

  // kCall.
  std::string callee;
  std::vector<ExprPtr> args;

  // kIf / kDoWhile share `cond`.
  ExprPtr cond;
  std::vector<StmtPtr> body;          // then-body / loop body
  std::vector<ElseIf> elseifs;        // kIf only
  std::vector<StmtPtr> else_body;     // kIf only

  // kDo.
  std::string do_var;
  ExprPtr from;
  ExprPtr to;
  ExprPtr step;  // may be null (step 1)
};

/// The one statement walk: visits `body` in source order, handing each
/// simple statement (assign, call, return, exit, cycle) to `on_stmt` and each
/// control expression — if/elseif and do-while conditions, do bounds (a
/// missing step as null) — to `on_expr` just before the body it guards;
/// if/elseif/else and do bodies are walked recursively. Visitors are
/// templates, so no call per statement goes through a type-erased function.
template <typename OnStmt, typename OnExpr>
void walk_stmts(const std::vector<StmtPtr>& body, OnStmt&& on_stmt,
                OnExpr&& on_expr) {
  for (const StmtPtr& st : body) {
    const Stmt& s = *st;
    switch (s.kind) {
      case StmtKind::kIf:
        on_expr(s.cond.get());
        walk_stmts(s.body, on_stmt, on_expr);
        for (const ElseIf& ei : s.elseifs) {
          on_expr(ei.cond.get());
          walk_stmts(ei.body, on_stmt, on_expr);
        }
        walk_stmts(s.else_body, on_stmt, on_expr);
        break;
      case StmtKind::kDo:
        on_expr(s.from.get());
        on_expr(s.to.get());
        on_expr(s.step.get());
        walk_stmts(s.body, on_stmt, on_expr);
        break;
      case StmtKind::kDoWhile:
        on_expr(s.cond.get());
        walk_stmts(s.body, on_stmt, on_expr);
        break;
      default:
        on_stmt(s);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Declarations and program structure.
// ---------------------------------------------------------------------------

enum class Intent { kNone, kIn, kOut, kInOut };

struct VarDecl {
  std::string name;
  TypeSpec type;
  std::vector<ExprPtr> dims;   // empty = scalar; entries are extent exprs
  bool is_parameter = false;
  ExprPtr init;                // parameter value / initializer (may be null)
  Intent intent = Intent::kNone;
  int line = 0;

  bool is_array() const { return !dims.empty(); }
};

struct DerivedTypeDef {
  std::string name;
  std::vector<VarDecl> components;
  int line = 0;
};

struct UseStmt {
  struct Rename {
    std::string local;   // name visible in the using scope
    std::string remote;  // name in the source module
  };
  std::string module;
  bool has_only = false;
  std::vector<Rename> renames;  // empty + !has_only = import-all
  int line = 0;
};

struct Subprogram {
  enum Kind { kSubroutine, kFunction };
  Kind kind = kSubroutine;
  std::string name;
  std::vector<std::string> params;
  std::string result_name;  // functions; defaults to `name`
  std::vector<UseStmt> uses;
  std::vector<VarDecl> decls;
  std::vector<StmtPtr> body;
  int line = 0;
  int end_line = 0;

  bool is_function() const { return kind == kFunction; }
};

struct InterfaceBlock {
  std::string name;                     // generic name
  std::vector<std::string> procedures;  // module procedures
  int line = 0;
};

struct Module {
  std::string name;
  std::string file;  // source file this module was parsed from
  std::vector<UseStmt> uses;
  std::vector<DerivedTypeDef> types;
  std::vector<VarDecl> decls;
  std::vector<InterfaceBlock> interfaces;
  std::vector<Subprogram> subprograms;
  int line = 0;
  int end_line = 0;

  const Subprogram* find_subprogram(const std::string& n) const;
  const DerivedTypeDef* find_type(const std::string& n) const;
  const VarDecl* find_decl(const std::string& n) const;
};

/// All modules parsed from one source file.
struct SourceFile {
  std::string path;
  std::vector<Module> modules;
};

}  // namespace rca::lang

#include "sparql/expr_eval.h"

#include <cmath>
#include <regex>
#include <span>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::sparql {

using rdf::Term;

int VarTable::IdOf(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  index_.emplace(name, id);
  names_.push_back(name);
  return id;
}

int VarTable::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

namespace {

// Operators, parsed once per node by the lowering and per evaluation by the
// interpreter; the Apply* functions below are the one implementation of
// each operator that both evaluators call.
enum class Op : uint8_t {
  kNot, kNeg,                              // unary
  kOr, kAnd,                               // three-valued logic
  kEq, kNe, kLt, kLe, kGt, kGe,            // comparison
  kAdd, kSub, kMul, kDiv,                  // arithmetic
  kUnknown,                                // evaluates to an error
};

// Anything but "!" is unary minus (the parser only produces the two).
Op UnaryOp(const std::string& op) { return op == "!" ? Op::kNot : Op::kNeg; }

Op BinaryOp(const std::string& op) {
  static const std::pair<const char*, Op> kOps[] = {
      {"||", Op::kOr}, {"&&", Op::kAnd}, {"=", Op::kEq},  {"!=", Op::kNe},
      {"<", Op::kLt},  {"<=", Op::kLe},  {">", Op::kGt},  {">=", Op::kGe},
      {"+", Op::kAdd}, {"-", Op::kSub},  {"*", Op::kMul}, {"/", Op::kDiv}};
  for (const auto& [name, code] : kOps) {
    if (op == name) return code;
  }
  return Op::kUnknown;
}

Value ApplyUnary(Op op, const Value& a) {
  if (op == Op::kNot) {
    auto b = a.EffectiveBool();
    if (!b.has_value()) return Value::Unbound();
    return Value::Bool(!*b);
  }
  // unary minus; -INT64_MIN is out of range and falls back to a double
  auto n = a.AsNumeric();
  if (!n.has_value()) return Value::Unbound();
  if (a.kind() == Value::Kind::kInt && a.int_value() != INT64_MIN) {
    return Value::Int(-a.int_value());
  }
  return Value::Double(-*n);
}

// || and && over effective boolean values, errors (nullopt) included: an
// error operand only decides the result when the other cannot.
std::optional<bool> LogicTruth(Op op, std::optional<bool> a,
                               std::optional<bool> b) {
  if (op == Op::kOr) {
    if ((a.has_value() && *a) || (b.has_value() && *b)) return true;
    if (a.has_value() && b.has_value()) return false;
    return std::nullopt;
  }
  if ((a.has_value() && !*a) || (b.has_value() && !*b)) return false;
  if (a.has_value() && b.has_value()) return true;
  return std::nullopt;
}

Value ApplyLogic(Op op, std::optional<bool> a, std::optional<bool> b) {
  const std::optional<bool> t = LogicTruth(op, a, b);
  return t.has_value() ? Value::Bool(*t) : Value::Unbound();
}

bool IsComparison(Op op) { return op >= Op::kEq && op <= Op::kGe; }

// A comparison of two numbers, as Value::Equals (= and !=) and
// Value::Compare (the orderings) decide it: NaN is unequal to everything
// yet orders as equal.
bool CompareNumbers(Op op, double a, double b) {
  const int c = a < b ? -1 : (a > b ? 1 : 0);
  switch (op) {
    case Op::kEq: return a == b;
    case Op::kNe: return !(a == b);
    case Op::kLt: return c < 0;
    case Op::kLe: return c <= 0;
    case Op::kGt: return c > 0;
    default: return c >= 0;
  }
}

// Integer + - *, or nullopt when the result is outside int64.
std::optional<int64_t> CheckedIntOp(Op op, int64_t a, int64_t b) {
  int64_t out = 0;
  const bool overflow = op == Op::kAdd   ? __builtin_add_overflow(a, b, &out)
                        : op == Op::kSub ? __builtin_sub_overflow(a, b, &out)
                                         : __builtin_mul_overflow(a, b, &out);
  if (overflow) return std::nullopt;
  return out;
}

// Comparison and arithmetic (every binary operator but || and &&).
Value ApplyBinary(Op op, const Value& a, const Value& b) {
  switch (op) {
    case Op::kEq:
    case Op::kNe: {
      auto eq = Value::Equals(a, b);
      if (!eq.has_value()) return Value::Unbound();
      return Value::Bool(op == Op::kEq ? *eq : !*eq);
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      auto c = Value::Compare(a, b);
      if (!c.has_value()) return Value::Unbound();
      if (op == Op::kLt) return Value::Bool(*c < 0);
      if (op == Op::kLe) return Value::Bool(*c <= 0);
      if (op == Op::kGt) return Value::Bool(*c > 0);
      return Value::Bool(*c >= 0);
    }
    default:
      break;
  }
  auto na = a.AsNumeric();
  auto nb = b.AsNumeric();
  if (!na.has_value() || !nb.has_value()) return Value::Unbound();
  // Integer + - * stay integers unless the result leaves int64; then they
  // are computed as doubles, like any other numeric operands.
  if (op == Op::kAdd || op == Op::kSub || op == Op::kMul) {
    if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
      const auto i = CheckedIntOp(op, a.int_value(), b.int_value());
      if (i.has_value()) return Value::Int(*i);
    }
  }
  switch (op) {
    case Op::kAdd:
      return Value::Double(*na + *nb);
    case Op::kSub:
      return Value::Double(*na - *nb);
    case Op::kMul:
      return Value::Double(*na * *nb);
    case Op::kDiv:
      if (*nb == 0) return Value::Unbound();
      return Value::Double(*na / *nb);
    default:
      return Value::Unbound();
  }
}

// [NOT] IN: `candidate(i)` evaluates the i-th of `n` candidates, lazily —
// the first equal one decides.
template <typename Candidate>
Value ApplyIn(bool negated, const Value& probe, size_t n,
              Candidate&& candidate) {
  if (probe.is_unbound()) return Value::Unbound();
  for (size_t i = 0; i < n; ++i) {
    auto eq = Value::Equals(probe, candidate(i));
    if (eq.has_value() && *eq) return Value::Bool(!negated);
  }
  return Value::Bool(negated);
}

// Calls that evaluate their arguments lazily (or not at all); they are not
// lowered, so EvalCall is their only implementation.
bool IsLazyCall(const std::string& name) {
  return name == "BOUND" || name == "COALESCE" || name == "IF";
}

/// Translates SPARQL regex flags (17.4.3.14) to std::regex flags. Honored:
/// `i` (case-insensitive), `m` (multiline anchors), `q` (pattern is a
/// literal string — implemented by escaping, see CachedRegex). `s`
/// (dot-matches-newline) has no std::regex equivalent and is explicitly
/// rejected, as is any unknown letter: the call evaluates to an error
/// (unbound) instead of silently ignoring the flag.
std::optional<std::regex::flag_type> TranslateRegexFlags(
    const std::string& flags, bool* literal) {
  auto out = std::regex::ECMAScript;
  *literal = false;
  for (char f : flags) {
    switch (f) {
      case 'i':
        out |= std::regex::icase;
        break;
      case 'm':
        out |= std::regex::multiline;
        break;
      case 'q':
        *literal = true;
        break;
      default:  // 's', 'x', or garbage: unsupported
        return std::nullopt;
    }
  }
  return out;
}

/// Escapes every ECMAScript metacharacter so the pattern matches literally
/// (the SPARQL `q` flag).
std::string EscapeRegexLiteral(const std::string& pattern) {
  static const std::string kMeta = R"(\^$.|?*+()[]{})";
  std::string out;
  out.reserve(pattern.size());
  for (char c : pattern) {
    if (kMeta.find(c) != std::string::npos) out += '\\';
    out += c;
  }
  return out;
}

/// Compiles (pattern, flags) to a std::regex, serving repeats from a
/// per-thread cache — REGEX/REPLACE run once per row, and recompiling a
/// std::regex per row dominated filter evaluation before this cache.
/// nullptr means invalid pattern or unsupported flags. The cache is
/// thread_local so morsel workers never contend or share regex objects
/// (std::regex matching is const but caching a shared object across threads
/// would still need lifetime care; per-thread is simpler and contention-free).
const std::regex* CachedRegex(const std::string& pattern,
                              const std::string& flags) {
  struct Entry {
    bool valid = false;
    std::regex re;
  };
  thread_local std::map<std::pair<std::string, std::string>, Entry> cache;
  // Bound the cache: patterns are almost always per-expression-node
  // constants, but a computed pattern could otherwise grow it per row.
  constexpr size_t kMaxEntries = 256;
  auto key = std::make_pair(pattern, flags);
  auto it = cache.find(key);
  if (it == cache.end()) {
    if (cache.size() >= kMaxEntries) cache.clear();
    Entry entry;
    bool literal = false;
    auto f = TranslateRegexFlags(flags, &literal);
    if (f.has_value()) {
      try {
        entry.re.assign(literal ? EscapeRegexLiteral(pattern) : pattern, *f);
        entry.valid = true;
      } catch (const std::regex_error&) {
        entry.valid = false;
      }
    }
    it = cache.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second.valid ? &it->second.re : nullptr;
}

Value EvalDateComponent(const Value& v, int component) {
  std::string_view lexical;
  if (v.kind() == Value::Kind::kTerm && v.term().is_literal()) {
    if (v.decoded().kind == rdf::DecodedValue::Kind::kDate && component < 3) {
      return Value::Int(v.decoded().DatePart(component));
    }
    lexical = v.term().lexical();
  } else if (v.kind() == Value::Kind::kString) {
    lexical = v.string_value();
  } else {
    return Value::Unbound();
  }
  auto c = rdf::DateTimeComponent(lexical, component);
  if (!c.has_value()) return Value::Unbound();
  return Value::Int(*c);
}

// `d` truncated to an integer value. NaN, the infinities and values outside
// the int64 range are errors: converting them is undefined behaviour.
Value TruncateToInt(double d) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return Value::Unbound();
  }
  return Value::Int(static_cast<int64_t>(d));
}

// Every call but the lazy ones, over its already evaluated arguments.
Value ApplyCall(const Expr& e, std::span<const Value> args) {
  const std::string& name = e.call_name;
  for (const Value& v : args) {
    if (v.is_unbound() && name != "CONCAT") return Value::Unbound();
  }

  if (name == "STR") return Value::String(args[0].AsString());
  if (name == "LANG") {
    if (args[0].kind() == Value::Kind::kTerm && args[0].term().is_literal()) {
      return Value::String(args[0].term().lang());
    }
    return Value::String("");
  }
  if (name == "DATATYPE") {
    if (args[0].kind() == Value::Kind::kTerm && args[0].term().is_literal()) {
      const std::string& dt = args[0].term().datatype();
      return Value::FromTerm(
          Term::Iri(dt.empty() ? rdf::xsd::kString : dt));
    }
    if (args[0].is_numeric()) {
      return Value::FromTerm(
          Term::Iri(args[0].kind() == Value::Kind::kInt ? rdf::xsd::kInteger
                                                        : rdf::xsd::kDouble));
    }
    return Value::Unbound();
  }
  if (name == "YEAR") return EvalDateComponent(args[0], 0);
  if (name == "MONTH") return EvalDateComponent(args[0], 1);
  if (name == "DAY") return EvalDateComponent(args[0], 2);
  if (name == "HOURS") return EvalDateComponent(args[0], 3);
  if (name == "MINUTES") return EvalDateComponent(args[0], 4);
  if (name == "SECONDS") return EvalDateComponent(args[0], 5);
  if (name == "ABS" || name == "CEIL" || name == "FLOOR" || name == "ROUND") {
    auto n = args[0].AsNumeric();
    if (!n.has_value()) return Value::Unbound();
    if (name == "ABS") {
      // |INT64_MIN| is out of range and falls back to a double.
      return args[0].kind() == Value::Kind::kInt &&
                     args[0].int_value() != INT64_MIN
                 ? Value::Int(std::llabs(args[0].int_value()))
                 : Value::Double(std::fabs(*n));
    }
    double r = name == "CEIL" ? std::ceil(*n)
               : name == "FLOOR" ? std::floor(*n)
                                 : std::round(*n);
    return TruncateToInt(r);
  }
  if (name == "CONCAT") {
    std::string out;
    for (const Value& v : args) out += v.AsString();
    return Value::String(std::move(out));
  }
  if (name == "STRLEN") {
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (name == "UCASE") return Value::String(ToUpperAscii(args[0].AsString()));
  if (name == "LCASE") return Value::String(ToLowerAscii(args[0].AsString()));
  if (name == "CONTAINS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(args[0].AsString().find(args[1].AsString()) !=
                       std::string::npos);
  }
  if (name == "STRSTARTS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(StartsWith(args[0].AsString(), args[1].AsString()));
  }
  if (name == "STRENDS") {
    if (args.size() != 2) return Value::Unbound();
    return Value::Bool(EndsWith(args[0].AsString(), args[1].AsString()));
  }
  if (name == "REGEX") {
    if (args.size() < 2) return Value::Unbound();
    const std::regex* re = CachedRegex(
        args[1].AsString(), args.size() >= 3 ? args[2].AsString() : "");
    if (re == nullptr) return Value::Unbound();
    return Value::Bool(std::regex_search(args[0].AsString(), *re));
  }
  if (name == "SUBSTR") {
    if (args.size() < 2) return Value::Unbound();
    std::string s = args[0].AsString();
    auto start = args[1].AsNumeric();
    if (!start.has_value() || std::isnan(*start)) return Value::Unbound();
    // SPARQL SUBSTR is 1-based. Clamp start/length into [0, s.size()]
    // *before* casting: a double outside the target range (SUBSTR(?s, 1e30),
    // negative, inf) is undefined behavior to convert to size_t. Fractional
    // arguments keep the historical truncation semantics.
    const double size_d = static_cast<double>(s.size());
    size_t begin;
    if (*start >= size_d + 1) return Value::String("");
    begin = *start >= 1 ? static_cast<size_t>(*start) - 1 : 0;
    if (begin >= s.size()) return Value::String("");
    size_t len = std::string::npos;
    if (args.size() >= 3) {
      auto n = args[2].AsNumeric();
      if (!n.has_value() || std::isnan(*n) || *n < 0) return Value::Unbound();
      len = *n >= size_d ? std::string::npos : static_cast<size_t>(*n);
    }
    return Value::String(s.substr(begin, len));
  }
  if (name == "STRBEFORE" || name == "STRAFTER") {
    if (args.size() != 2) return Value::Unbound();
    std::string s = args[0].AsString();
    std::string sep = args[1].AsString();
    size_t pos = s.find(sep);
    if (pos == std::string::npos) return Value::String("");
    return Value::String(name == "STRBEFORE" ? s.substr(0, pos)
                                             : s.substr(pos + sep.size()));
  }
  if (name == "REPLACE") {
    if (args.size() < 3) return Value::Unbound();
    const std::regex* re = CachedRegex(
        args[1].AsString(), args.size() >= 4 ? args[3].AsString() : "");
    if (re == nullptr) return Value::Unbound();
    return Value::String(
        std::regex_replace(args[0].AsString(), *re, args[2].AsString()));
  }
  if (name == "LANGMATCHES") {
    if (args.size() != 2) return Value::Unbound();
    std::string lang = ToLowerAscii(args[0].AsString());
    std::string range = ToLowerAscii(args[1].AsString());
    if (range == "*") return Value::Bool(!lang.empty());
    return Value::Bool(lang == range ||
                       StartsWith(lang, range + "-"));
  }
  if (name == "IRI" || name == "URI") {
    if (args.size() != 1) return Value::Unbound();
    return Value::FromTerm(Term::Iri(args[0].AsString()));
  }
  if (name == "ISIRI" || name == "ISURI") {
    return Value::Bool(args[0].kind() == Value::Kind::kTerm &&
                       args[0].term().is_iri());
  }
  if (name == "ISBLANK") {
    return Value::Bool(args[0].kind() == Value::Kind::kTerm &&
                       args[0].term().is_blank());
  }
  if (name == "ISLITERAL") {
    return Value::Bool(args[0].kind() != Value::Kind::kTerm ||
                       args[0].term().is_literal());
  }
  if (name == "ISNUMERIC") {
    return Value::Bool(args[0].AsNumeric().has_value());
  }
  if (name == "CAST") {
    // Datatype IRI carried on e.term. A non-numeric argument's string is
    // read by the decode rule, as a literal of the target type; the empty
    // string is an error, and so is an integer form outside int64.
    const std::string& dt = e.term.lexical();
    namespace xsd = rdf::xsd;
    auto decode_as = [&](const char* type) {
      std::string s = args[0].AsString();
      if (s.empty()) return rdf::DecodedValue();
      return rdf::DecodeValue(Term::TypedLiteral(std::move(s), type));
    };
    if (dt == xsd::kInteger || dt == xsd::kInt || dt == xsd::kLong) {
      auto n = args[0].AsNumeric();
      if (n.has_value()) return TruncateToInt(*n);
      const rdf::DecodedValue d = decode_as(xsd::kInteger);
      if (d.kind == rdf::DecodedValue::Kind::kInt) return Value::Int(d.i);
      return Value::Unbound();
    }
    if (dt == xsd::kDouble || dt == xsd::kDecimal || dt == xsd::kFloat) {
      auto n = args[0].AsNumeric();
      if (n.has_value()) return Value::Double(*n);
      const rdf::DecodedValue d = decode_as(xsd::kDouble);
      if (d.kind == rdf::DecodedValue::Kind::kDouble) return Value::Double(d.d);
      return Value::Unbound();
    }
    if (dt == xsd::kBoolean) {
      const rdf::DecodedValue d = decode_as(xsd::kBoolean);
      if (d.kind == rdf::DecodedValue::Kind::kBool) return Value::Bool(d.b);
      return Value::Unbound();
    }
    if (dt == xsd::kString) return Value::String(args[0].AsString());
    if (dt == xsd::kDateTime || dt == xsd::kDate) {
      return Value::FromTerm(Term::TypedLiteral(args[0].AsString(), dt));
    }
    return Value::Unbound();
  }
  return Value::Unbound();
}

Value EvalCall(const Expr& e, SolutionRow binding, const EvalContext& ctx) {
  const std::string& name = e.call_name;

  if (name == "BOUND") {
    if (e.args.size() != 1 || e.args[0]->kind != Expr::Kind::kVar) {
      return Value::Unbound();
    }
    int slot = ctx.vars->Find(e.args[0]->var);
    bool bound = slot >= 0 && static_cast<size_t>(slot) < binding.size() &&
                 binding[slot] != rdf::kNoTermId;
    return Value::Bool(bound);
  }
  if (name == "COALESCE") {
    for (const ExprPtr& a : e.args) {
      Value v = EvalExpr(*a, binding, ctx);
      if (!v.is_unbound()) return v;
    }
    return Value::Unbound();
  }
  if (name == "IF") {
    if (e.args.size() != 3) return Value::Unbound();
    auto cond = EvalExpr(*e.args[0], binding, ctx).EffectiveBool();
    if (!cond.has_value()) return Value::Unbound();
    return EvalExpr(*e.args[*cond ? 1 : 2], binding, ctx);
  }

  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) args.push_back(EvalExpr(*a, binding, ctx));
  return ApplyCall(e, args);
}

// The id in `slot`; kNoTermId when unbound or never bound.
rdf::TermId SlotId(int slot, SolutionRow binding) {
  return slot >= 0 && static_cast<size_t>(slot) < binding.size()
             ? binding[slot]
             : rdf::kNoTermId;
}

// The value of a bound slot: its decoded value from the dictionary, terms
// by reference.
Value SlotValue(int slot, SolutionRow binding, const EvalContext& ctx) {
  const rdf::TermId id = SlotId(slot, binding);
  if (id == rdf::kNoTermId) return Value::Unbound();
  return Value::OfId(*ctx.terms, id);
}

}  // namespace

Value EvalExpr(const Expr& expr, SolutionRow binding,
               const EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kVar:
      return SlotValue(ctx.vars->Find(expr.var), binding, ctx);
    case Expr::Kind::kTerm:
      return Value::Ref(expr.term);
    case Expr::Kind::kUnary:
      return ApplyUnary(UnaryOp(expr.op),
                        EvalExpr(*expr.args[0], binding, ctx));
    case Expr::Kind::kBinary: {
      const Op op = BinaryOp(expr.op);
      Value a = EvalExpr(*expr.args[0], binding, ctx);
      Value b = EvalExpr(*expr.args[1], binding, ctx);
      if (op == Op::kOr || op == Op::kAnd) {
        return ApplyLogic(op, a.EffectiveBool(), b.EffectiveBool());
      }
      return ApplyBinary(op, a, b);
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, binding, ctx);
    case Expr::Kind::kAggregate: {
      if (ctx.agg_nodes != nullptr && ctx.agg_values != nullptr) {
        for (size_t i = 0; i < ctx.agg_nodes->size(); ++i) {
          if ((*ctx.agg_nodes)[i] == &expr) return ctx.agg_values[i];
        }
      }
      return Value::Unbound();
    }
    case Expr::Kind::kExists: {
      if (ctx.exists_eval == nullptr || expr.pattern == nullptr) {
        return Value::Unbound();
      }
      bool found = (*ctx.exists_eval)(*expr.pattern, binding);
      return Value::Bool(expr.negated ? !found : found);
    }
    case Expr::Kind::kIn: {
      if (expr.args.empty()) return Value::Unbound();
      return ApplyIn(expr.negated, EvalExpr(*expr.args[0], binding, ctx),
                     expr.args.size() - 1, [&](size_t i) {
                       return EvalExpr(*expr.args[i + 1], binding, ctx);
                     });
    }
  }
  return Value::Unbound();
}

CompiledExpr::CompiledExpr(const Expr& expr, const VarTable& vars) {
  root_ = Lower(expr, vars);
}

int CompiledExpr::Lower(const Expr& e, const VarTable& vars) {
  Node node;
  node.expr = &e;
  auto lower_args = [&](size_t from) {
    for (size_t i = from; i < e.args.size(); ++i) {
      node.args.push_back(Lower(*e.args[i], vars));
    }
  };
  switch (e.kind) {
    case Expr::Kind::kVar:
      node.kind = Kind::kSlot;
      node.slot = vars.Find(e.var);
      break;
    case Expr::Kind::kTerm:
      node.kind = Kind::kConst;
      node.constant = Value::Ref(e.term);
      break;
    case Expr::Kind::kUnary:
      node.kind = Kind::kUnary;
      node.op = static_cast<uint8_t>(UnaryOp(e.op));
      lower_args(0);
      break;
    case Expr::Kind::kBinary: {
      const Op op = BinaryOp(e.op);
      node.kind = op == Op::kOr || op == Op::kAnd ? Kind::kLogic
                                                  : Kind::kBinary;
      node.op = static_cast<uint8_t>(op);
      lower_args(0);
      break;
    }
    case Expr::Kind::kCall:
      if (!IsLazyCall(e.call_name)) {
        node.kind = Kind::kCall;
        lower_args(0);
      }
      break;
    case Expr::Kind::kIn:
      if (!e.args.empty()) {
        node.kind = Kind::kIn;
        lower_args(0);
      }
      break;
    case Expr::Kind::kAggregate:
    case Expr::Kind::kExists:
      break;  // kInterp
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

const Value& CompiledExpr::Operand(int n, SolutionRow row,
                                   const EvalContext& ctx,
                                   Value* scratch) const {
  if (nodes_[n].kind == Kind::kConst) return nodes_[n].constant;
  *scratch = EvalNode(n, row, ctx);
  return *scratch;
}

Value CompiledExpr::EvalNode(int n, SolutionRow row,
                             const EvalContext& ctx) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Kind::kSlot:
      return SlotValue(node.slot, row, ctx);
    case Kind::kConst:
      return node.constant;
    case Kind::kUnary:
      return ApplyUnary(static_cast<Op>(node.op),
                        EvalNode(node.args[0], row, ctx));
    case Kind::kLogic:
      return ApplyLogic(static_cast<Op>(node.op),
                        EvalNode(node.args[0], row, ctx).EffectiveBool(),
                        EvalNode(node.args[1], row, ctx).EffectiveBool());
    case Kind::kBinary: {
      Value a_scratch, b_scratch;
      const Value& a = Operand(node.args[0], row, ctx, &a_scratch);
      const Value& b = Operand(node.args[1], row, ctx, &b_scratch);
      return ApplyBinary(static_cast<Op>(node.op), a, b);
    }
    case Kind::kIn: {
      Value scratch;
      return ApplyIn(node.expr->negated, EvalNode(node.args[0], row, ctx),
                     node.args.size() - 1, [&](size_t i) -> const Value& {
                       return Operand(node.args[i + 1], row, ctx, &scratch);
                     });
    }
    case Kind::kCall: {
      std::vector<Value> args;
      args.reserve(node.args.size());
      for (int a : node.args) args.push_back(EvalNode(a, row, ctx));
      return ApplyCall(*node.expr, args);
    }
    case Kind::kInterp:
      break;
  }
  return EvalExpr(*node.expr, row, ctx);
}

bool CompiledExpr::LeafNumber(int n, SolutionRow row,
                              const EvalContext& ctx, double* out) const {
  const Node& node = nodes_[n];
  if (node.kind == Kind::kConst) {
    const std::optional<double> number = node.constant.AsNumeric();
    if (number.has_value()) *out = *number;
    return number.has_value();
  }
  if (node.kind != Kind::kSlot) return false;
  const rdf::TermId id = SlotId(node.slot, row);
  if (id == rdf::kNoTermId) return false;
  const rdf::DecodedValue& d = ctx.terms->Decoded(id);
  if (!d.is_number()) return false;
  *out = d.number();
  return true;
}

std::optional<bool> CompiledExpr::TestNode(int n, SolutionRow row,
                                           const EvalContext& ctx) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Kind::kLogic:
      return LogicTruth(static_cast<Op>(node.op),
                        TestNode(node.args[0], row, ctx),
                        TestNode(node.args[1], row, ctx));
    case Kind::kUnary:
      if (static_cast<Op>(node.op) == Op::kNot) {
        const std::optional<bool> b = TestNode(node.args[0], row, ctx);
        if (!b.has_value()) return std::nullopt;
        return !*b;
      }
      break;
    case Kind::kBinary: {
      const Op op = static_cast<Op>(node.op);
      double a = 0, b = 0;
      if (IsComparison(op) && LeafNumber(node.args[0], row, ctx, &a) &&
          LeafNumber(node.args[1], row, ctx, &b)) {
        return CompareNumbers(op, a, b);
      }
      break;
    }
    default:
      break;
  }
  return EvalNode(n, row, ctx).EffectiveBool();
}

}  // namespace rdfa::sparql

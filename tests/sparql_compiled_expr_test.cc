// Differential coverage for compiled expressions: over a seeded corpus of
// random expression trees and rows, CompiledExpr::Eval must return exactly
// what the interpreter (EvalExpr) returns — same kind, same rendered term,
// same effective boolean value — and CompiledExpr::Test, which answers
// numeric comparisons from the dictionary's decoded values, must return
// that effective boolean value.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "sparql/expr_eval.h"

namespace rdfa::sparql {
namespace {

using rdf::Term;
namespace xsd = rdf::xsd;

// Leaf terms: every numeric datatype, numeric-looking plain literals,
// malformed lexical forms, dates, language tags, IRIs and blank nodes.
std::vector<Term> TermPool() {
  return {
      Term::TypedLiteral("5", xsd::kInteger),
      Term::TypedLiteral("05", xsd::kInt),
      Term::Integer(INT64_MAX),
      Term::Integer(INT64_MIN),
      Term::TypedLiteral("12345678901234567890", xsd::kInteger),
      Term::TypedLiteral("-99999999999999999999", xsd::kLong),
      Term::TypedLiteral("-3", xsd::kLong),
      Term::TypedLiteral("12abc", xsd::kInteger),
      Term::TypedLiteral("", xsd::kInteger),
      Term::TypedLiteral("1e1", xsd::kInteger),
      Term::TypedLiteral("1.50", xsd::kDecimal),
      Term::TypedLiteral("x1", xsd::kDecimal),
      Term::TypedLiteral("2.5E1", xsd::kDouble),
      Term::TypedLiteral("NaN", xsd::kDouble),
      Term::TypedLiteral("-0", xsd::kDouble),
      Term::TypedLiteral("3.25", xsd::kFloat),
      Term::TypedLiteral("true", xsd::kBoolean),
      Term::TypedLiteral("0", xsd::kBoolean),
      Term::TypedLiteral("maybe", xsd::kBoolean),
      Term::TypedLiteral("2021-03-04", xsd::kDate),
      Term::TypedLiteral("2020-01-02T03:04:05", xsd::kDateTime),
      Term::TypedLiteral("20-1", xsd::kDate),
      Term::TypedLiteral("abc", xsd::kString),
      Term::Literal("42"),
      Term::Literal("4.2"),
      Term::Literal("-7"),
      Term::Literal("abc"),
      Term::Literal(""),
      Term::LangLiteral("chat", "fr"),
      Term::LangLiteral("42", "en"),
      Term::Iri("http://example.org/a"),
      Term::Iri("http://example.org/42"),
      Term::Blank("b1"),
  };
}

// Random expression trees over the pool, the variables ?a..?d (plus ?zz,
// which no row binds), and every operator and call kind the evaluators
// implement. The pool's INT64_MIN/MAX and 20-digit integers make + - *,
// unary minus, ABS and SUM leave int64; both evaluators then compute in
// doubles.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed), pool_(TermPool()) {}

  ExprPtr Gen(int depth) {
    if (depth == 0 || Pick(5) == 0) return Leaf();
    switch (Pick(9)) {
      case 0:
        return Expr::MakeUnary(Pick(2) == 0 ? "!" : "-", Gen(depth - 1));
      case 1:
      case 2:
        return Expr::MakeBinary(Pick(2) == 0 ? "&&" : "||", Gen(depth - 1),
                                Gen(depth - 1));
      case 3: {
        static const char* kCompare[] = {"=", "!=", "<", "<=", ">", ">="};
        return Expr::MakeBinary(kCompare[Pick(6)], Gen(depth - 1),
                                Gen(depth - 1));
      }
      case 4: {
        static const char* kArith[] = {"+", "-", "*", "/"};
        return Expr::MakeBinary(kArith[Pick(4)], Gen(depth - 1),
                                Gen(depth - 1));
      }
      case 5: {
        auto in = std::make_shared<Expr>();
        in->kind = Expr::Kind::kIn;
        in->negated = Pick(2) == 0;
        const size_t n = 1 + Pick(4);  // the probe and 0-3 candidates
        for (size_t i = 0; i < n; ++i) in->args.push_back(Gen(depth - 1));
        return in;
      }
      default:
        return Call(depth);
    }
  }

  Term PoolTerm() { return pool_[Pick(pool_.size())]; }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  ExprPtr Var() {
    static const char* kVars[] = {"a", "b", "c", "d", "zz"};
    return Expr::MakeVar(kVars[Pick(5)]);
  }

  ExprPtr Leaf() {
    switch (Pick(4)) {
      case 0:
      case 1:
        return Var();
      case 2:
        return Expr::MakeTerm(Term::Integer(static_cast<int64_t>(Pick(12))));
      default:
        return Expr::MakeTerm(PoolTerm());
    }
  }

  ExprPtr Call(int depth) {
    struct Shape {
      const char* name;
      int arity;
      bool leaf_args;
    };
    static const Shape kCalls[] = {
        {"YEAR", 1, false},     {"MONTH", 1, false},  {"DAY", 1, false},
        {"STR", 1, false},      {"STRLEN", 1, false}, {"UCASE", 1, false},
        {"LANG", 1, false},     {"DATATYPE", 1, false},
        {"ISNUMERIC", 1, false}, {"ISIRI", 1, false}, {"ISLITERAL", 1, false},
        {"ISBLANK", 1, false},  {"CONTAINS", 2, false},
        {"STRSTARTS", 2, false}, {"CONCAT", 2, false},
        {"COALESCE", 2, false}, {"IF", 3, false},     {"ABS", 1, true},
        {"ROUND", 1, true},     {"CEIL", 1, true},    {"SUBSTR", 2, true},
        {"REGEX", 2, false},    {"BOUND", 1, true},   {"CAST", 1, true},
    };
    const Shape& shape = kCalls[Pick(std::size(kCalls))];
    const std::string name = shape.name;
    std::vector<ExprPtr> args;
    for (int i = 0; i < shape.arity; ++i) {
      args.push_back(shape.leaf_args ? Leaf() : Gen(depth - 1));
    }
    if (name == "BOUND") args[0] = Var();
    if (name == "REGEX") {
      static const char* kPatterns[] = {"^4", "a|c", "[", "^$", "2021"};
      args[1] = Expr::MakeTerm(Term::Literal(kPatterns[Pick(5)]));
    }
    ExprPtr call = Expr::MakeCall(name, std::move(args));
    if (name == "CAST") {
      static const char* kTypes[] = {xsd::kInteger, xsd::kDouble,
                                     xsd::kBoolean, xsd::kDateTime,
                                     xsd::kString};
      call->term = Term::Iri(kTypes[Pick(5)]);
    }
    return call;
  }

  std::mt19937_64 rng_;
  std::vector<Term> pool_;
};

std::string Render(const Value& v) {
  std::string out = std::to_string(static_cast<int>(v.kind()));
  if (!v.is_unbound()) out += " " + v.ToTerm().ToNTriples();
  return out;
}

TEST(CompiledExprTest, MatchesTheInterpreterOnASeededCorpus) {
  rdf::Graph g;
  std::vector<rdf::TermId> ids;
  for (const Term& t : TermPool()) ids.push_back(g.terms().Intern(t));
  VarTable vars;
  for (const char* v : {"a", "b", "c", "d"}) vars.IdOf(v);
  EvalContext ctx{.terms = &g.terms(), .vars = &vars};

  std::mt19937_64 rng(2024);
  std::vector<std::vector<rdf::TermId>> rows;
  for (int r = 0; r < 24; ++r) {
    // Every slot unbound about one time in four; some rows are shorter
    // than the table (slots past their end read as unbound).
    std::vector<rdf::TermId> row(r % 8 == 7 ? 2 : 4);
    for (rdf::TermId& cell : row) {
      cell = rng() % 4 == 0 ? rdf::kNoTermId : ids[rng() % ids.size()];
    }
    rows.push_back(std::move(row));
  }

  ExprGen gen(99);
  size_t bound_results = 0;
  for (int i = 0; i < 4000; ++i) {
    const ExprPtr expr = gen.Gen(4);
    const CompiledExpr compiled(*expr, vars);
    for (const std::vector<rdf::TermId>& row : rows) {
      const Value want = EvalExpr(*expr, row, ctx);
      const Value got = compiled.Eval(row, ctx);
      ASSERT_EQ(Render(got), Render(want)) << "expression #" << i;
      ASSERT_EQ(got.EffectiveBool(), want.EffectiveBool())
          << "expression #" << i;
      ASSERT_EQ(compiled.Test(row, ctx), want.EffectiveBool())
          << "expression #" << i;
      if (!want.is_unbound()) ++bound_results;
    }
  }
  // The corpus is not all errors.
  EXPECT_GT(bound_results, 4000u * 24 / 4);
}

TEST(CompiledExprTest, ThreeValuedLogicAndInOverErrors) {
  rdf::Graph g;
  VarTable vars;
  vars.IdOf("t");
  vars.IdOf("f");
  const std::vector<rdf::TermId> row = {g.terms().Intern(Term::Boolean(true)),
                       g.terms().Intern(Term::Boolean(false))};
  EvalContext ctx{.terms = &g.terms(), .vars = &vars};
  // ?e is never bound: an error operand.
  auto t = [] { return Expr::MakeVar("t"); };
  auto f = [] { return Expr::MakeVar("f"); };
  auto e = [] { return Expr::MakeVar("e"); };
  struct Case {
    ExprPtr expr;
    std::optional<bool> want;
  };
  auto in = [](bool negated, std::vector<ExprPtr> args) {
    auto x = std::make_shared<Expr>();
    x->kind = Expr::Kind::kIn;
    x->negated = negated;
    x->args = std::move(args);
    return x;
  };
  const Case cases[] = {
      {Expr::MakeBinary("||", e(), t()), true},
      {Expr::MakeBinary("||", f(), e()), std::nullopt},
      {Expr::MakeBinary("&&", e(), f()), false},
      {Expr::MakeBinary("&&", t(), e()), std::nullopt},
      {Expr::MakeUnary("!", e()), std::nullopt},
      {Expr::MakeUnary("!", f()), true},
      {in(false, {t(), e(), t()}), true},
      {in(true, {t(), e(), f()}), true},
      {in(false, {e(), t()}), std::nullopt},
      {in(false, {}), std::nullopt},
  };
  for (const Case& c : cases) {
    const CompiledExpr compiled(*c.expr, vars);
    EXPECT_EQ(EvalExpr(*c.expr, row, ctx).EffectiveBool(), c.want);
    EXPECT_EQ(compiled.Eval(row, ctx).EffectiveBool(), c.want);
  }
}

TEST(CompiledExprTest, IntegerConversionsOfNonFiniteValuesAreErrors) {
  rdf::Graph g;
  VarTable vars;
  EvalContext ctx{.terms = &g.terms(), .vars = &vars};
  for (const char* lexical : {"NaN", "INF", "-INF", "1e300"}) {
    for (const char* fn : {"ROUND", "CEIL", "FLOOR", "CAST"}) {
      ExprPtr call = Expr::MakeCall(
          fn, {Expr::MakeTerm(Term::TypedLiteral(lexical, xsd::kDouble))});
      if (std::string(fn) == "CAST") call->term = Term::Iri(xsd::kInteger);
      EXPECT_TRUE(EvalExpr(*call, {}, ctx).is_unbound()) << fn << lexical;
      EXPECT_TRUE(CompiledExpr(*call, vars).Eval({}, ctx).is_unbound());
    }
  }
}

TEST(CompiledExprTest, TestOfLeafComparisonsMatchesTheInterpreter) {
  // Every comparison operator over every pair of pool terms, as slots and
  // as constants, with unbound slots, alone and under !, && and ||: the
  // shapes Test answers from the decoded values without a Value.
  rdf::Graph g;
  VarTable vars;
  vars.IdOf("a");
  vars.IdOf("b");
  vars.IdOf("c");
  EvalContext ctx{.terms = &g.terms(), .vars = &vars};
  std::vector<Term> pool = TermPool();
  pool.push_back(Term::TypedLiteral("1e400", xsd::kDouble));
  pool.push_back(Term::TypedLiteral("5.0", xsd::kDouble));
  static const char* kCompare[] = {"=", "!=", "<", "<=", ">", ">="};
  const rdf::TermId seven = g.terms().Intern(Term::Integer(7));
  size_t answered = 0;
  for (size_t i = 0; i <= pool.size(); ++i) {
    for (size_t j = 0; j <= pool.size(); ++j) {
      // i or j == pool.size(): that slot is unbound.
      const std::vector<rdf::TermId> row = {
          i < pool.size() ? g.terms().Intern(pool[i]) : rdf::kNoTermId,
          j < pool.size() ? g.terms().Intern(pool[j]) : rdf::kNoTermId,
          seven};
      for (const char* op : kCompare) {
        std::vector<ExprPtr> shapes = {
            Expr::MakeBinary(op, Expr::MakeVar("a"), Expr::MakeVar("b"))};
        if (j < pool.size()) {
          shapes.push_back(Expr::MakeBinary(op, Expr::MakeVar("a"),
                                            Expr::MakeTerm(pool[j])));
        }
        if (i < pool.size()) {
          shapes.push_back(Expr::MakeBinary(op, Expr::MakeTerm(pool[i]),
                                            Expr::MakeVar("b")));
        }
        const size_t leaves = shapes.size();
        for (size_t k = 0; k < leaves; ++k) {
          shapes.push_back(Expr::MakeUnary("!", shapes[k]));
          shapes.push_back(Expr::MakeBinary(
              "&&", shapes[k],
              Expr::MakeBinary("<", Expr::MakeVar("c"),
                               Expr::MakeTerm(Term::Integer(9)))));
          shapes.push_back(Expr::MakeBinary("||", Expr::MakeVar("zz"),
                                            shapes[k]));
        }
        for (const ExprPtr& e : shapes) {
          const std::optional<bool> want =
              EvalExpr(*e, row, ctx).EffectiveBool();
          ASSERT_EQ(CompiledExpr(*e, vars).Test(row, ctx), want)
              << "i=" << i << " j=" << j << " op=" << op;
          answered += want.has_value();
        }
      }
    }
  }
  EXPECT_GT(answered, 1000u);
}

TEST(CompiledExprTest, IntegerOverflowFallsBackToDoubles) {
  rdf::Graph g;
  VarTable vars;
  EvalContext ctx{.terms = &g.terms(), .vars = &vars};
  auto num = [](const char* lexical) {
    return Expr::MakeTerm(Term::TypedLiteral(lexical, xsd::kInteger));
  };
  auto render = [&](const ExprPtr& e) {
    const Value want = EvalExpr(*e, {}, ctx);
    EXPECT_EQ(Render(CompiledExpr(*e, vars).Eval({}, ctx)), Render(want));
    return want.is_unbound() ? std::string("unbound")
                             : want.ToTerm().ToNTriples();
  };
  const std::string kMax = "9223372036854775807";
  const std::string kMin = "-9223372036854775808";
  auto dbl = [](const char* lexical) {
    return "\"" + std::string(lexical) + "\"^^<" + xsd::kDouble + ">";
  };
  auto integer = [](const std::string& lexical) {
    return "\"" + lexical + "\"^^<" + xsd::kInteger + ">";
  };
  // In range: still integers.
  EXPECT_EQ(render(Expr::MakeBinary("+", num("9223372036854775806"),
                                    num("1"))),
            integer(kMax));
  EXPECT_EQ(render(Expr::MakeBinary("-", num(kMin.c_str()), num("0"))),
            integer(kMin));
  // Out of range: the double of the exact result.
  EXPECT_EQ(render(Expr::MakeBinary("+", num(kMax.c_str()), num("1"))),
            dbl("9.2233720368547758e+18"));
  EXPECT_EQ(render(Expr::MakeBinary("-", num(kMin.c_str()), num("1"))),
            dbl("-9.2233720368547758e+18"));
  EXPECT_EQ(render(Expr::MakeBinary("*", num(kMax.c_str()), num("2"))),
            dbl("1.8446744073709552e+19"));
  EXPECT_EQ(render(Expr::MakeUnary("-", num(kMin.c_str()))),
            dbl("9.2233720368547758e+18"));
  EXPECT_EQ(render(Expr::MakeCall("ABS", {num(kMin.c_str())})),
            dbl("9.2233720368547758e+18"));
  EXPECT_EQ(render(Expr::MakeUnary("-", num(kMax.c_str()))),
            integer("-9223372036854775807"));
  // A 20-digit integer form is a double, not INT64_MAX.
  EXPECT_EQ(render(num("12345678901234567890")),
            dbl("1.2345678901234567e+19"));
  EXPECT_EQ(render(Expr::MakeBinary("=", num("12345678901234567890"),
                                    num(kMax.c_str()))),
            "\"false\"^^<" + std::string(xsd::kBoolean) + ">");
  // CAST of a string reads it by the same rule: out of int64 is an error.
  ExprPtr cast = Expr::MakeCall(
      "CAST", {Expr::MakeTerm(
                  Term::TypedLiteral("99999999999999999999", xsd::kString))});
  cast->term = Term::Iri(xsd::kInteger);
  EXPECT_EQ(render(cast), "unbound");
  ExprPtr cast_ok =
      Expr::MakeCall("CAST", {Expr::MakeTerm(Term::Literal(" 12"))});
  cast_ok->term = Term::Iri(xsd::kInteger);
  EXPECT_EQ(render(cast_ok), integer("12"));
}

}  // namespace
}  // namespace rdfa::sparql

#include "sparql/parser.h"

#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"
#include "sparql/lexer.h"

namespace rdfa::sparql {

namespace {

using rdf::Term;

const char* const kBuiltinCalls[] = {
    "BOUND",    "STR",       "LANG",      "DATATYPE",  "YEAR",
    "MONTH",    "DAY",       "HOURS",     "MINUTES",   "SECONDS",
    "ABS",      "CEIL",      "FLOOR",     "ROUND",     "CONCAT",
    "STRLEN",   "UCASE",     "LCASE",     "CONTAINS",  "STRSTARTS",
    "STRENDS",  "REGEX",     "IF",        "COALESCE",  "ISIRI",
    "ISURI",    "ISBLANK",   "ISLITERAL", "ISNUMERIC", "SUBSTR",
    "STRBEFORE", "STRAFTER", "REPLACE",   "LANGMATCHES", "IRI",
    "URI",
};

bool IsBuiltinCall(const std::string& upper) {
  for (const char* name : kBuiltinCalls) {
    if (upper == name) return true;
  }
  return false;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const rdf::PrefixMap* extra)
      : tokens_(std::move(tokens)) {
    if (extra != nullptr) {
      for (const auto& [p, b] : extra->prefixes()) prefixes_.Register(p, b);
    }
  }

  Result<UpdateRequest> ParseUpdateRequest() {
    RDFA_RETURN_NOT_OK(ParsePrologue());
    UpdateRequest u;
    if (ConsumeKeyword("INSERT")) {
      if (ConsumeKeyword("DATA")) {
        u.kind = UpdateRequest::Kind::kInsertData;
        RDFA_ASSIGN_OR_RETURN(u.insert_template, ParseTripleTemplate());
        return FinishUpdate(std::move(u));
      }
      // INSERT { t } WHERE { p }
      u.kind = UpdateRequest::Kind::kModify;
      RDFA_ASSIGN_OR_RETURN(u.insert_template, ParseTripleTemplate());
      if (!ConsumeKeyword("WHERE")) return Err("expected WHERE after INSERT");
      RDFA_ASSIGN_OR_RETURN(u.where, ParseGroupGraphPattern());
      return FinishUpdate(std::move(u));
    }
    if (ConsumeKeyword("DELETE")) {
      if (ConsumeKeyword("DATA")) {
        u.kind = UpdateRequest::Kind::kDeleteData;
        RDFA_ASSIGN_OR_RETURN(u.delete_template, ParseTripleTemplate());
        return FinishUpdate(std::move(u));
      }
      if (ConsumeKeyword("WHERE")) {
        u.kind = UpdateRequest::Kind::kDeleteWhere;
        RDFA_ASSIGN_OR_RETURN(u.where, ParseGroupGraphPattern());
        // The template is the pattern's triples.
        for (const PatternElement& el : u.where.elements) {
          if (el.kind != PatternElement::Kind::kTriple) {
            return Err("DELETE WHERE supports plain triple patterns only");
          }
          u.delete_template.push_back(el.triple);
        }
        return FinishUpdate(std::move(u));
      }
      // DELETE { t } [INSERT { t }] WHERE { p }
      u.kind = UpdateRequest::Kind::kModify;
      RDFA_ASSIGN_OR_RETURN(u.delete_template, ParseTripleTemplate());
      if (ConsumeKeyword("INSERT")) {
        RDFA_ASSIGN_OR_RETURN(u.insert_template, ParseTripleTemplate());
      }
      if (!ConsumeKeyword("WHERE")) return Err("expected WHERE in DELETE");
      RDFA_ASSIGN_OR_RETURN(u.where, ParseGroupGraphPattern());
      return FinishUpdate(std::move(u));
    }
    return Err("expected INSERT or DELETE");
  }

  Result<ParsedQuery> Parse() {
    RDFA_RETURN_NOT_OK(ParsePrologue());
    ParsedQuery q;
    if (PeekKeyword("SELECT")) {
      q.form = ParsedQuery::Form::kSelect;
      RDFA_ASSIGN_OR_RETURN(q.select, ParseSelect());
    } else if (PeekKeyword("CONSTRUCT")) {
      q.form = ParsedQuery::Form::kConstruct;
      RDFA_ASSIGN_OR_RETURN(q.construct, ParseConstruct());
    } else if (PeekKeyword("ASK")) {
      q.form = ParsedQuery::Form::kAsk;
      Consume();
      ConsumeKeyword("WHERE");  // optional, as in SELECT
      RDFA_ASSIGN_OR_RETURN(q.ask.where, ParseGroupGraphPattern());
    } else if (PeekKeyword("DESCRIBE")) {
      q.form = ParsedQuery::Form::kDescribe;
      Consume();
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          q.describe.vars.push_back(Consume().text);
          continue;
        }
        if (Peek().kind == TokenKind::kIriRef ||
            Peek().kind == TokenKind::kPName) {
          // Bare keywords WHERE terminates the resource list.
          if (PeekKeyword("WHERE")) break;
          RDFA_ASSIGN_OR_RETURN(rdf::Term term, ParseTermToken());
          if (!term.is_iri()) return Err("DESCRIBE takes IRIs or variables");
          q.describe.resources.push_back(std::move(term));
          continue;
        }
        break;
      }
      if (q.describe.resources.empty() && q.describe.vars.empty()) {
        return Err("DESCRIBE needs at least one IRI or variable");
      }
      if (ConsumeKeyword("WHERE") || PeekPunct("{")) {
        RDFA_ASSIGN_OR_RETURN(q.describe.where, ParseGroupGraphPattern());
      } else if (!q.describe.vars.empty()) {
        return Err("DESCRIBE ?var needs a WHERE clause");
      }
    } else {
      return Err("expected SELECT, CONSTRUCT, ASK or DESCRIBE");
    }
    if (Peek().kind != TokenKind::kEof) {
      return Err("trailing input after query: '" + Peek().text + "'");
    }
    return q;
  }

 private:
  /// `{ triples }` of an update template, as plain triple patterns.
  Result<std::vector<TriplePattern>> ParseTripleTemplate() {
    RDFA_RETURN_NOT_OK(ExpectPunct("{"));
    GraphPattern gp;
    while (!PeekPunct("}")) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated template");
      RDFA_RETURN_NOT_OK(ParseTriplesSameSubject(&gp));
      if (!ConsumePunct(".")) {
        if (!PeekPunct("}")) return Err("expected '.' in template");
      }
    }
    RDFA_RETURN_NOT_OK(ExpectPunct("}"));
    std::vector<TriplePattern> out;
    for (const PatternElement& el : gp.elements) {
      if (el.kind != PatternElement::Kind::kTriple) {
        return Err("update templates allow plain triples only");
      }
      out.push_back(el.triple);
    }
    return out;
  }

  Result<UpdateRequest> FinishUpdate(UpdateRequest u) {
    if (Peek().kind != TokenKind::kEof) {
      return Err("trailing input after update: '" + Peek().text + "'");
    }
    return u;
  }

  // ---- token helpers -------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Consume() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kPName && EqualsIgnoreCase(t.text, kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Consume();
    return true;
  }
  bool PeekPunct(std::string_view p, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kPunct && t.text == p;
  }
  bool ConsumePunct(std::string_view p) {
    if (!PeekPunct(p)) return false;
    Consume();
    return true;
  }
  Status ExpectPunct(std::string_view p) {
    if (!ConsumePunct(p)) {
      return Err("expected '" + std::string(p) + "', got '" + Peek().text +
                 "'");
    }
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError("sparql line " + std::to_string(Peek().line) +
                              ": " + msg);
  }

  std::string FreshVar() { return "_path" + std::to_string(fresh_counter_++); }

  // ---- prologue -------------------------------------------------------
  Status ParsePrologue() {
    while (PeekKeyword("PREFIX")) {
      Consume();
      const Token& name = Peek();
      if (name.kind != TokenKind::kPName || name.text.find(':') == std::string::npos) {
        // Also allow "p" then ":"? Lexer folds "p:" into one PName; the form
        // "PREFIX ex: <...>" yields PName "ex:" (empty local part).
        return Err("expected prefix name in PREFIX");
      }
      std::string prefix = name.text.substr(0, name.text.find(':'));
      Consume();
      const Token& iri = Peek();
      if (iri.kind != TokenKind::kIriRef) return Err("expected IRI in PREFIX");
      prefixes_.Register(prefix, iri.text);
      Consume();
    }
    return Status::OK();
  }

  // ---- terms ----------------------------------------------------------
  Result<Term> ExpandPName(const std::string& pname) {
    auto iri = prefixes_.Expand(pname);
    if (!iri.has_value()) return Err("unknown prefix in '" + pname + "'");
    return Term::Iri(*iri);
  }

  /// Parses a concrete RDF term (no variables).
  Result<Term> ParseTermToken() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kIriRef: {
        Consume();
        return Term::Iri(t.text);
      }
      case TokenKind::kPName: {
        if (EqualsIgnoreCase(t.text, "true")) {
          Consume();
          return Term::Boolean(true);
        }
        if (EqualsIgnoreCase(t.text, "false")) {
          Consume();
          return Term::Boolean(false);
        }
        Consume();
        return ExpandPName(t.text);
      }
      case TokenKind::kBlank: {
        Consume();
        return Term::Blank(t.text);
      }
      case TokenKind::kInteger: {
        Consume();
        return Term::TypedLiteral(t.text, rdf::xsd::kInteger);
      }
      case TokenKind::kDecimal: {
        Consume();
        return Term::TypedLiteral(t.text, rdf::xsd::kDecimal);
      }
      case TokenKind::kString: {
        std::string lexical = t.text;
        Consume();
        if (Peek().kind == TokenKind::kLangTag) {
          std::string lang = Consume().text;
          return Term::LangLiteral(std::move(lexical), std::move(lang));
        }
        if (PeekPunct("^^")) {
          Consume();
          const Token& dt = Peek();
          if (dt.kind == TokenKind::kIriRef) {
            Consume();
            return Term::TypedLiteral(std::move(lexical), dt.text);
          }
          if (dt.kind == TokenKind::kPName) {
            Consume();
            RDFA_ASSIGN_OR_RETURN(Term dterm, ExpandPName(dt.text));
            return Term::TypedLiteral(std::move(lexical), dterm.lexical());
          }
          return Err("expected datatype IRI after ^^");
        }
        return Term::Literal(std::move(lexical));
      }
      default:
        return Err("expected an RDF term, got '" + t.text + "'");
    }
  }

  /// Variable or term.
  Result<NodePattern> ParseNode() {
    if (Peek().kind == TokenKind::kVar) {
      return NodePattern::Var(Consume().text);
    }
    RDFA_ASSIGN_OR_RETURN(Term term, ParseTermToken());
    return NodePattern::Const(std::move(term));
  }

  // ---- graph patterns ---------------------------------------------------
  Result<GraphPattern> ParseGroupGraphPattern() {
    RDFA_RETURN_NOT_OK(ExpectPunct("{"));
    GraphPattern gp;
    while (!PeekPunct("}")) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated '{'");
      if (ConsumeKeyword("FILTER")) {
        PatternElement el;
        el.kind = PatternElement::Kind::kFilter;
        RDFA_ASSIGN_OR_RETURN(el.filter, ParseBracketedOrCallExpr());
        gp.elements.push_back(std::move(el));
        ConsumePunct(".");
        continue;
      }
      if (ConsumeKeyword("OPTIONAL")) {
        PatternElement el;
        el.kind = PatternElement::Kind::kOptional;
        RDFA_ASSIGN_OR_RETURN(GraphPattern child, ParseGroupGraphPattern());
        el.child = std::make_shared<GraphPattern>(std::move(child));
        gp.elements.push_back(std::move(el));
        ConsumePunct(".");
        continue;
      }
      if (ConsumeKeyword("BIND")) {
        RDFA_RETURN_NOT_OK(ExpectPunct("("));
        PatternElement el;
        el.kind = PatternElement::Kind::kBind;
        RDFA_ASSIGN_OR_RETURN(el.bind_expr, ParseExpr());
        if (!ConsumeKeyword("AS")) return Err("expected AS in BIND");
        if (Peek().kind != TokenKind::kVar) return Err("expected var in BIND");
        el.bind_var = Consume().text;
        RDFA_RETURN_NOT_OK(ExpectPunct(")"));
        gp.elements.push_back(std::move(el));
        ConsumePunct(".");
        continue;
      }
      if (ConsumeKeyword("MINUS")) {
        PatternElement el;
        el.kind = PatternElement::Kind::kMinus;
        RDFA_ASSIGN_OR_RETURN(GraphPattern child, ParseGroupGraphPattern());
        el.child = std::make_shared<GraphPattern>(std::move(child));
        gp.elements.push_back(std::move(el));
        ConsumePunct(".");
        continue;
      }
      if (ConsumeKeyword("VALUES")) {
        PatternElement el;
        el.kind = PatternElement::Kind::kValues;
        if (Peek().kind != TokenKind::kVar) {
          return Err("only single-variable VALUES is supported");
        }
        el.values_var = Consume().text;
        RDFA_RETURN_NOT_OK(ExpectPunct("{"));
        while (!PeekPunct("}")) {
          RDFA_ASSIGN_OR_RETURN(Term term, ParseTermToken());
          el.values_terms.push_back(std::move(term));
        }
        RDFA_RETURN_NOT_OK(ExpectPunct("}"));
        gp.elements.push_back(std::move(el));
        ConsumePunct(".");
        continue;
      }
      if (PeekPunct("{")) {
        // Subselect or a grouped pattern (possibly lhs of UNION).
        if (PeekKeyword("SELECT", 1)) {
          Consume();  // '{'
          PatternElement el;
          el.kind = PatternElement::Kind::kSubSelect;
          RDFA_ASSIGN_OR_RETURN(SelectQuery sub, ParseSelect());
          el.sub_select = std::make_shared<SelectQuery>(std::move(sub));
          RDFA_RETURN_NOT_OK(ExpectPunct("}"));
          gp.elements.push_back(std::move(el));
          ConsumePunct(".");
          continue;
        }
        RDFA_ASSIGN_OR_RETURN(GraphPattern lhs, ParseGroupGraphPattern());
        if (ConsumeKeyword("UNION")) {
          PatternElement el;
          el.kind = PatternElement::Kind::kUnion;
          el.child = std::make_shared<GraphPattern>(std::move(lhs));
          RDFA_ASSIGN_OR_RETURN(GraphPattern rhs, ParseGroupGraphPattern());
          while (true) {
            el.child2 = std::make_shared<GraphPattern>(std::move(rhs));
            if (ConsumeKeyword("UNION")) {
              // Left-fold further branches: wrap current union as lhs.
              GraphPattern folded;
              folded.elements.push_back(el);
              el = PatternElement();
              el.kind = PatternElement::Kind::kUnion;
              el.child = std::make_shared<GraphPattern>(std::move(folded));
              RDFA_ASSIGN_OR_RETURN(rhs, ParseGroupGraphPattern());
              continue;
            }
            break;
          }
          gp.elements.push_back(std::move(el));
        } else {
          // Inline group: splice its elements.
          for (auto& e : lhs.elements) gp.elements.push_back(std::move(e));
        }
        ConsumePunct(".");
        continue;
      }
      // Triples block. The '.' after it may be left out before '}' or a
      // pattern that is not a triple (SPARQL 1.1 GroupGraphPatternSub).
      RDFA_RETURN_NOT_OK(ParseTriplesSameSubject(&gp));
      if (!ConsumePunct(".") && !PeekPunct("}") && !PeekPunct("{") &&
          !PeekKeyword("FILTER") && !PeekKeyword("OPTIONAL") &&
          !PeekKeyword("BIND") && !PeekKeyword("MINUS") &&
          !PeekKeyword("VALUES")) {
        return Err("expected '.' between triples");
      }
    }
    RDFA_RETURN_NOT_OK(ExpectPunct("}"));
    return gp;
  }

  /// One subject with `;`-separated predicate-object lists; `,` object
  /// lists; property paths in predicate position.
  Status ParseTriplesSameSubject(GraphPattern* gp) {
    RDFA_ASSIGN_OR_RETURN(NodePattern subject, ParseNode());
    while (true) {
      RDFA_RETURN_NOT_OK(ParsePredicateObjectList(subject, gp));
      if (ConsumePunct(";")) {
        if (PeekPunct(".") || PeekPunct("}")) break;  // trailing ';'
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParsePredicateObjectList(const NodePattern& subject,
                                  GraphPattern* gp) {
    // Predicate: 'a', a term, a variable, or a path (seq '/' and inverse '^').
    bool inverse_first = ConsumePunct("^");
    NodePattern pred;
    if (PeekKeyword("a")) {
      Consume();
      pred = NodePattern::Const(Term::Iri(rdf::rdfns::kType));
    } else {
      RDFA_ASSIGN_OR_RETURN(pred, ParseNode());
    }

    // Transitive-closure path: <p>+ (one or more hops) / <p>* (zero or
    // more). Only a single non-inverse constant property is supported.
    if ((PeekPunct("+") || PeekPunct("*")) && !pred.is_var &&
        !inverse_first) {
      bool reflexive = Consume().text == "*";
      while (true) {
        RDFA_ASSIGN_OR_RETURN(NodePattern object, ParseNode());
        PatternElement el;
        el.kind = PatternElement::Kind::kTransPath;
        el.triple = {subject, pred, object};
        el.path_reflexive = reflexive;
        gp->elements.push_back(std::move(el));
        if (ConsumePunct(",")) continue;
        break;
      }
      return Status::OK();
    }

    // Path sequence: collect hops.
    struct Hop {
      NodePattern pred;
      bool inverse;
    };
    std::vector<Hop> hops = {{pred, inverse_first}};
    while (PeekPunct("/")) {
      Consume();
      bool inv = ConsumePunct("^");
      NodePattern next;
      if (PeekKeyword("a")) {
        Consume();
        next = NodePattern::Const(Term::Iri(rdf::rdfns::kType));
      } else {
        RDFA_ASSIGN_OR_RETURN(next, ParseNode());
      }
      hops.push_back({next, inv});
    }

    // Object list.
    while (true) {
      RDFA_ASSIGN_OR_RETURN(NodePattern object, ParseNode());
      // Desugar the path into chained triples with fresh vars.
      NodePattern cur = subject;
      for (size_t i = 0; i < hops.size(); ++i) {
        NodePattern next = (i + 1 == hops.size())
                               ? object
                               : NodePattern::Var(FreshVar());
        PatternElement el;
        el.kind = PatternElement::Kind::kTriple;
        if (hops[i].inverse) {
          el.triple = {next, hops[i].pred, cur};
        } else {
          el.triple = {cur, hops[i].pred, next};
        }
        gp->elements.push_back(std::move(el));
        cur = next;
      }
      if (ConsumePunct(",")) continue;
      break;
    }
    return Status::OK();
  }

  // ---- SELECT -----------------------------------------------------------
  Result<SelectQuery> ParseSelect() {
    if (!ConsumeKeyword("SELECT")) return Err("expected SELECT");
    SelectQuery q;
    if (ConsumeKeyword("DISTINCT")) q.distinct = true;
    if (ConsumePunct("*")) {
      q.select_all = true;
    } else {
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          Projection p;
          p.var = Consume().text;
          q.projections.push_back(std::move(p));
          continue;
        }
        if (PeekPunct("(")) {
          Consume();
          Projection p;
          RDFA_ASSIGN_OR_RETURN(p.expr, ParseExpr());
          if (!ConsumeKeyword("AS")) return Err("expected AS in projection");
          if (Peek().kind != TokenKind::kVar) {
            return Err("expected variable after AS");
          }
          p.var = Consume().text;
          RDFA_RETURN_NOT_OK(ExpectPunct(")"));
          q.projections.push_back(std::move(p));
          continue;
        }
        // Bare aggregate in SELECT (common informal form "SUM(?x)"):
        if (Peek().kind == TokenKind::kPName && PeekPunct("(", 1)) {
          Projection p;
          RDFA_ASSIGN_OR_RETURN(p.expr, ParseExpr());
          p.var = "_agg" + std::to_string(fresh_counter_++);
          q.projections.push_back(std::move(p));
          continue;
        }
        break;
      }
      if (q.projections.empty()) return Err("empty SELECT clause");
    }
    ConsumeKeyword("WHERE");
    RDFA_ASSIGN_OR_RETURN(q.where, ParseGroupGraphPattern());

    if (ConsumeKeyword("GROUP")) {
      if (!ConsumeKeyword("BY")) return Err("expected BY after GROUP");
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          q.group_by.push_back(Expr::MakeVar(Consume().text));
        } else if (PeekPunct("(")) {
          Consume();
          RDFA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          if (ConsumeKeyword("AS")) {
            // (expr AS ?v): bind ?v to expr on every solution, as a BIND
            // closing the WHERE group would, then group by ?v.
            if (Peek().kind != TokenKind::kVar) {
              return Err("expected variable after AS");
            }
            PatternElement bind;
            bind.kind = PatternElement::Kind::kBind;
            bind.bind_expr = std::move(e);
            bind.bind_var = Consume().text;
            e = Expr::MakeVar(bind.bind_var);
            q.where.elements.push_back(std::move(bind));
          }
          RDFA_RETURN_NOT_OK(ExpectPunct(")"));
          q.group_by.push_back(std::move(e));
        } else if (Peek().kind == TokenKind::kPName && PeekPunct("(", 1) &&
                   !PeekKeyword("HAVING") && !PeekKeyword("ORDER") &&
                   !PeekKeyword("LIMIT") && !PeekKeyword("OFFSET")) {
          RDFA_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
          q.group_by.push_back(std::move(e));
        } else {
          break;
        }
      }
      if (q.group_by.empty()) return Err("empty GROUP BY");
    }
    if (ConsumeKeyword("HAVING")) {
      while (PeekPunct("(")) {
        RDFA_ASSIGN_OR_RETURN(ExprPtr e, ParseBracketedOrCallExpr());
        q.having.push_back(std::move(e));
      }
      if (q.having.empty()) return Err("empty HAVING");
    }
    if (ConsumeKeyword("ORDER")) {
      if (!ConsumeKeyword("BY")) return Err("expected BY after ORDER");
      while (true) {
        OrderKey key;
        if (ConsumeKeyword("ASC")) {
          RDFA_ASSIGN_OR_RETURN(key.expr, ParseBracketedOrCallExpr());
        } else if (ConsumeKeyword("DESC")) {
          key.ascending = false;
          RDFA_ASSIGN_OR_RETURN(key.expr, ParseBracketedOrCallExpr());
        } else if (Peek().kind == TokenKind::kVar) {
          key.expr = Expr::MakeVar(Consume().text);
        } else if (PeekPunct("(")) {
          RDFA_ASSIGN_OR_RETURN(key.expr, ParseBracketedOrCallExpr());
        } else {
          break;
        }
        q.order_by.push_back(std::move(key));
      }
      if (q.order_by.empty()) return Err("empty ORDER BY");
    }
    // LimitOffsetClauses: LIMIT and OFFSET in either order, each at most
    // once (a repeat is left as trailing input).
    for (bool limit = false, offset = false;;) {
      if (!limit && ConsumeKeyword("LIMIT")) {
        limit = true;
        if (Peek().kind != TokenKind::kInteger) {
          return Err("expected LIMIT count");
        }
        RDFA_ASSIGN_OR_RETURN(q.limit, ParseCount("LIMIT"));
      } else if (!offset && ConsumeKeyword("OFFSET")) {
        offset = true;
        if (Peek().kind != TokenKind::kInteger) {
          return Err("expected OFFSET count");
        }
        RDFA_ASSIGN_OR_RETURN(q.offset, ParseCount("OFFSET"));
      } else {
        return q;
      }
    }
  }

  /// A LIMIT/OFFSET count from the current integer token. strtoll saturates
  /// to LLONG_MAX on overflow without failing — checked via errno/endptr so
  /// an out-of-range literal is a typed ParseError instead of a silent
  /// near-2^63 count reaching the executor. The lexer never attaches a sign
  /// to kInteger, so the negativity check only guards saturation edge cases
  /// and future lexer changes.
  Result<int64_t> ParseCount(const char* clause) {
    const std::string text = Consume().text;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end == nullptr || *end != '\0' || v < 0) {
      return Err(std::string(clause) + " count out of range: " + text);
    }
    return static_cast<int64_t>(v);
  }

  Result<ConstructQuery> ParseConstruct() {
    if (!ConsumeKeyword("CONSTRUCT")) return Err("expected CONSTRUCT");
    ConstructQuery q;
    RDFA_RETURN_NOT_OK(ExpectPunct("{"));
    while (!PeekPunct("}")) {
      GraphPattern tmp;
      RDFA_RETURN_NOT_OK(ParseTriplesSameSubject(&tmp));
      for (const auto& el : tmp.elements) {
        q.construct_template.push_back(el.triple);
      }
      if (!ConsumePunct(".")) break;
    }
    RDFA_RETURN_NOT_OK(ExpectPunct("}"));
    ConsumeKeyword("WHERE");
    RDFA_ASSIGN_OR_RETURN(q.where, ParseGroupGraphPattern());
    return q;
  }

  // ---- expressions -------------------------------------------------------
  /// FILTER/HAVING/ORDER argument: either "(expr)" or a bare call like
  /// REGEX(...).
  Result<ExprPtr> ParseBracketedOrCallExpr() {
    if (PeekPunct("(")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      RDFA_RETURN_NOT_OK(ExpectPunct(")"));
      return e;
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    RDFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (PeekPunct("||")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::MakeBinary("||", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    RDFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRel());
    while (PeekPunct("&&")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRel());
      lhs = Expr::MakeBinary("&&", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseRel() {
    RDFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdd());
    static const char* const kOps[] = {"=", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kOps) {
      if (PeekPunct(op)) {
        Consume();
        RDFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdd());
        return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
      }
    }
    bool negated = false;
    if (PeekKeyword("NOT") && PeekKeyword("IN", 1)) {
      Consume();
      negated = true;
    }
    if (ConsumeKeyword("IN")) {
      RDFA_RETURN_NOT_OK(ExpectPunct("("));
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kIn;
      e->negated = negated;
      e->args.push_back(std::move(lhs));
      if (!PeekPunct(")")) {
        while (true) {
          RDFA_ASSIGN_OR_RETURN(ExprPtr cand, ParseExpr());
          e->args.push_back(std::move(cand));
          if (ConsumePunct(",")) continue;
          break;
        }
      }
      RDFA_RETURN_NOT_OK(ExpectPunct(")"));
      return e;
    }
    if (negated) return Err("expected IN after NOT");
    return lhs;
  }

  Result<ExprPtr> ParseAdd() {
    RDFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMul());
    while (PeekPunct("+") || PeekPunct("-")) {
      std::string op = Consume().text;
      RDFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMul());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMul() {
    RDFA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (PeekPunct("*") || PeekPunct("/")) {
      std::string op = Consume().text;
      RDFA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (PeekPunct("!")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr a, ParseUnary());
      return Expr::MakeUnary("!", std::move(a));
    }
    if (PeekPunct("-")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr a, ParseUnary());
      return Expr::MakeUnary("-", std::move(a));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    // EXISTS { ... } / NOT EXISTS { ... }.
    if (PeekKeyword("EXISTS") ||
        (PeekKeyword("NOT") && PeekKeyword("EXISTS", 1))) {
      bool negated = PeekKeyword("NOT");
      if (negated) Consume();
      Consume();  // EXISTS
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kExists;
      e->negated = negated;
      RDFA_ASSIGN_OR_RETURN(GraphPattern child, ParseGroupGraphPattern());
      e->pattern = std::make_shared<GraphPattern>(std::move(child));
      return e;
    }
    const Token& t = Peek();
    if (PeekPunct("(")) {
      Consume();
      RDFA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      RDFA_RETURN_NOT_OK(ExpectPunct(")"));
      return e;
    }
    if (t.kind == TokenKind::kVar) {
      return Expr::MakeVar(Consume().text);
    }
    if (t.kind == TokenKind::kPName && PeekPunct("(", 1)) {
      std::string upper = ToUpperAscii(t.text);
      // Aggregates.
      if (upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
          upper == "MIN" || upper == "MAX" || upper == "GROUP_CONCAT" ||
          upper == "SAMPLE") {
        return ParseAggregate(upper);
      }
      if (IsBuiltinCall(upper)) {
        Consume();
        Consume();  // '('
        std::vector<ExprPtr> args;
        if (!PeekPunct(")")) {
          while (true) {
            RDFA_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
            args.push_back(std::move(a));
            if (ConsumePunct(",")) continue;
            break;
          }
        }
        RDFA_RETURN_NOT_OK(ExpectPunct(")"));
        return Expr::MakeCall(std::move(upper), std::move(args));
      }
      // Cast through a datatype IRI, e.g. xsd:integer("3").
      RDFA_ASSIGN_OR_RETURN(Term dt, ExpandPName(t.text));
      // Note: ExpandPName consumed nothing; consume the name now.
      Consume();
      Consume();  // '('
      std::vector<ExprPtr> args;
      RDFA_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      args.push_back(std::move(a));
      RDFA_RETURN_NOT_OK(ExpectPunct(")"));
      ExprPtr call = Expr::MakeCall("CAST", std::move(args));
      call->term = dt;  // datatype carried on the node
      return call;
    }
    // Constant term.
    RDFA_ASSIGN_OR_RETURN(Term term, ParseTermToken());
    return Expr::MakeTerm(std::move(term));
  }

  Result<ExprPtr> ParseAggregate(const std::string& upper) {
    Consume();  // name
    RDFA_RETURN_NOT_OK(ExpectPunct("("));
    bool distinct = ConsumeKeyword("DISTINCT");
    AggFunc f = AggFunc::kCount;
    if (upper == "COUNT") f = AggFunc::kCount;
    else if (upper == "SUM") f = AggFunc::kSum;
    else if (upper == "AVG") f = AggFunc::kAvg;
    else if (upper == "MIN") f = AggFunc::kMin;
    else if (upper == "MAX") f = AggFunc::kMax;
    else if (upper == "GROUP_CONCAT") f = AggFunc::kGroupConcat;
    else if (upper == "SAMPLE") f = AggFunc::kSample;

    if (upper == "COUNT" && ConsumePunct("*")) {
      RDFA_RETURN_NOT_OK(ExpectPunct(")"));
      return Expr::MakeAggregate(f, nullptr, distinct);
    }
    RDFA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    std::string separator = ", ";
    if (ConsumePunct(";")) {
      if (!ConsumeKeyword("SEPARATOR")) return Err("expected SEPARATOR");
      RDFA_RETURN_NOT_OK(ExpectPunct("="));
      if (Peek().kind != TokenKind::kString) {
        return Err("expected separator string");
      }
      separator = Consume().text;
    }
    RDFA_RETURN_NOT_OK(ExpectPunct(")"));
    return Expr::MakeAggregate(f, std::move(arg), distinct,
                               std::move(separator));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  rdf::PrefixMap prefixes_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view text,
                               const rdf::PrefixMap* extra_prefixes) {
  RDFA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), extra_prefixes);
  return parser.Parse();
}

Result<UpdateRequest> ParseUpdate(std::string_view text,
                                  const rdf::PrefixMap* extra_prefixes) {
  RDFA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), extra_prefixes);
  return parser.ParseUpdateRequest();
}

}  // namespace rdfa::sparql

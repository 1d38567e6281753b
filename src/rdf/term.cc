#include "rdf/term.h"

#include <cctype>
#include <cstdio>
#include <functional>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::rdf {

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = TermKind::kIri;
  t.lexical_ = std::move(iri);
  return t;
}

Term Term::Blank(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlankNode;
  t.lexical_ = std::move(label);
  return t;
}

Term Term::Literal(std::string lexical) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  return t;
}

Term Term::TypedLiteral(std::string lexical, std::string datatype_iri) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.datatype_ = std::move(datatype_iri);
  return t;
}

Term Term::LangLiteral(std::string lexical, std::string lang) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.lang_ = std::move(lang);
  return t;
}

Term Term::Integer(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return TypedLiteral(buf, xsd::kInteger);
}

Term Term::Double(double value) {
  // Round-trippable lexical form: %.17g preserves the exact double so
  // aggregate results survive a Term round trip (FormatNumber truncates to
  // display precision).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return TypedLiteral(buf, xsd::kDouble);
}

Term Term::Boolean(bool value) {
  return TypedLiteral(value ? "true" : "false", xsd::kBoolean);
}

Term Term::DateTime(std::string lexical) {
  return TypedLiteral(std::move(lexical), xsd::kDateTime);
}

namespace {
bool LexicalLooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  bool digit = false, dot = false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      digit = true;
    } else if (s[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digit;
}
}  // namespace

bool Term::IsNumericLiteral() const {
  if (!is_literal()) return false;
  if (datatype_ == xsd::kInteger || datatype_ == xsd::kDouble ||
      datatype_ == xsd::kDecimal || datatype_ == xsd::kFloat ||
      datatype_ == xsd::kInt || datatype_ == xsd::kLong) {
    return true;
  }
  if (datatype_.empty() && lang_.empty()) return LexicalLooksNumeric(lexical_);
  return false;
}

void Term::AppendNTriples(std::string* out) const {
  switch (kind_) {
    case TermKind::kIri:
      *out += '<';
      *out += lexical_;
      *out += '>';
      return;
    case TermKind::kBlankNode:
      *out += "_:";
      *out += lexical_;
      return;
    case TermKind::kLiteral:
      *out += '"';
      AppendLiteralEscaped(out, lexical_);
      *out += '"';
      if (!lang_.empty()) {
        *out += '@';
        *out += lang_;
      } else if (!datatype_.empty()) {
        *out += "^^<";
        *out += datatype_;
        *out += '>';
      }
      return;
  }
}

std::string Term::ToNTriples() const {
  std::string out;
  AppendNTriples(&out);
  return out;
}

size_t Term::Hash() const {
  size_t h = std::hash<std::string>()(lexical_);
  h = h * 31 + std::hash<std::string>()(datatype_);
  h = h * 31 + std::hash<std::string>()(lang_);
  h = h * 31 + static_cast<size_t>(kind_);
  return h;
}

}  // namespace rdfa::rdf

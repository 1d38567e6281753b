#include "sparql/value.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::sparql {

using rdf::Term;

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::FromTerm(const Term& term) {
  Value v = Ref(term);
  if (v.term_ref_ != nullptr) {
    v.term_ = term;
    v.term_ref_ = nullptr;
  }
  return v;
}

Value Value::Ref(const Term& term) {
  namespace xsd = rdf::xsd;
  if (term.is_literal()) {
    // A view compares lengths before characters: most datatype IRIs differ
    // from most of these in length, and all share a 33-character prefix.
    const std::string_view dt = term.datatype();
    if (dt == xsd::kInteger || dt == xsd::kInt || dt == xsd::kLong) {
      char* end = nullptr;
      long long parsed = std::strtoll(term.lexical().c_str(), &end, 10);
      if (end != nullptr && *end == '\0') return Int(parsed);
    } else if (dt == xsd::kDouble || dt == xsd::kDecimal || dt == xsd::kFloat) {
      char* end = nullptr;
      double parsed = std::strtod(term.lexical().c_str(), &end);
      if (end != nullptr && *end == '\0') return Double(parsed);
    } else if (dt == xsd::kBoolean) {
      if (term.lexical() == "true" || term.lexical() == "1") return Bool(true);
      if (term.lexical() == "false" || term.lexical() == "0") return Bool(false);
    }
  }
  Value v;
  v.kind_ = Kind::kTerm;
  v.term_ref_ = &term;
  return v;
}

Term Value::ToTerm() const {
  switch (kind_) {
    case Kind::kBool:
      return Term::Boolean(bool_);
    case Kind::kInt:
      return Term::Integer(int_);
    case Kind::kDouble:
      return Term::Double(double_);
    case Kind::kString:
      return Term::Literal(string_);
    case Kind::kTerm:
      return term();
    case Kind::kUnbound:
      break;
  }
  return Term::Literal("");
}

std::optional<bool> Value::EffectiveBool() const {
  switch (kind_) {
    case Kind::kBool:
      return bool_;
    case Kind::kInt:
      return int_ != 0;
    case Kind::kDouble:
      return double_ != 0 && !std::isnan(double_);
    case Kind::kString:
      return !string_.empty();
    case Kind::kTerm:
      if (term().is_literal() && term().datatype().empty()) {
        return !term().lexical().empty();
      }
      return std::nullopt;
    case Kind::kUnbound:
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<double> Value::AsNumeric() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kDouble:
      return double_;
    case Kind::kTerm:
      if (term().IsNumericLiteral()) {
        char* end = nullptr;
        double parsed = std::strtod(term().lexical().c_str(), &end);
        if (end != nullptr && *end == '\0') return parsed;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

std::string Value::AsString() const {
  switch (kind_) {
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble:
      return FormatNumber(double_);
    case Kind::kString:
      return string_;
    case Kind::kTerm:
      return term().lexical();
    case Kind::kUnbound:
      return "";
  }
  return "";
}

std::optional<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_unbound() || b.is_unbound()) return std::nullopt;
  // Numeric comparison dominates.
  auto na = a.AsNumeric();
  auto nb = b.AsNumeric();
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  // Booleans.
  if (a.kind() == Kind::kBool && b.kind() == Kind::kBool) {
    return static_cast<int>(a.bool_value()) - static_cast<int>(b.bool_value());
  }
  // Strings / plain literals / typed literals with matching datatype
  // (covers xsd:dateTime which orders lexically in ISO form).
  auto string_like = [](const Value& v) -> std::optional<std::string> {
    if (v.kind() == Kind::kString) return v.string_value();
    if (v.kind() == Kind::kTerm && v.term().is_literal()) {
      return v.term().lexical();
    }
    return std::nullopt;
  };
  auto sa = string_like(a);
  auto sb = string_like(b);
  if (sa.has_value() && sb.has_value()) {
    int c = sa->compare(*sb);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // IRIs order lexically (used by ORDER BY, not by filters usually).
  if (a.kind() == Kind::kTerm && b.kind() == Kind::kTerm) {
    int c = a.term().lexical().compare(b.term().lexical());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return std::nullopt;
}

std::optional<bool> Value::Equals(const Value& a, const Value& b) {
  if (a.is_unbound() || b.is_unbound()) return std::nullopt;
  auto na = a.AsNumeric();
  auto nb = b.AsNumeric();
  if (na.has_value() && nb.has_value()) return *na == *nb;
  if (a.kind() == Kind::kBool || b.kind() == Kind::kBool) {
    if (a.kind() == Kind::kBool && b.kind() == Kind::kBool) {
      return a.bool_value() == b.bool_value();
    }
  }
  if (a.kind() == Kind::kTerm && b.kind() == Kind::kTerm) {
    return a.term() == b.term();
  }
  // String-ish comparison.
  auto string_like = [](const Value& v) -> std::optional<std::string> {
    if (v.kind() == Kind::kString) return v.string_value();
    if (v.kind() == Kind::kTerm && v.term().is_literal() &&
        v.term().lang().empty()) {
      return v.term().lexical();
    }
    return std::nullopt;
  };
  auto sa = string_like(a);
  auto sb = string_like(b);
  if (sa.has_value() && sb.has_value()) return *sa == *sb;
  return false;
}

bool IsDateTimeLiteral(const Term& term) {
  return term.is_literal() && (term.datatype() == rdf::xsd::kDateTime ||
                               term.datatype() == rdf::xsd::kDate);
}

std::optional<int> DateTimeComponent(const std::string& lexical,
                                     int component) {
  // Expected shapes: YYYY-MM-DD or YYYY-MM-DDTHH:MM:SS[.fff][Z|+hh:mm]
  if (lexical.size() < 10 || lexical[4] != '-' || lexical[7] != '-') {
    return std::nullopt;
  }
  auto num = [&](size_t pos, size_t len) -> std::optional<int> {
    int out = 0;
    for (size_t i = pos; i < pos + len; ++i) {
      if (i >= lexical.size() ||
          !std::isdigit(static_cast<unsigned char>(lexical[i]))) {
        return std::nullopt;
      }
      out = out * 10 + (lexical[i] - '0');
    }
    return out;
  };
  switch (component) {
    case 0:
      return num(0, 4);
    case 1:
      return num(5, 2);
    case 2:
      return num(8, 2);
    case 3:
      return lexical.size() >= 13 ? num(11, 2) : std::nullopt;
    case 4:
      return lexical.size() >= 16 ? num(14, 2) : std::nullopt;
    case 5:
      return lexical.size() >= 19 ? num(17, 2) : std::nullopt;
    default:
      return std::nullopt;
  }
}

}  // namespace rdfa::sparql

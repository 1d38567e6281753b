#include "sparql/value.h"

#include <cmath>
#include <string_view>

#include "common/string_util.h"

namespace rdfa::sparql {

using rdf::Term;

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.decoded_.kind = rdf::DecodedValue::Kind::kBool;
  v.decoded_.b = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.decoded_.kind = rdf::DecodedValue::Kind::kInt;
  v.decoded_.i = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.decoded_.kind = rdf::DecodedValue::Kind::kDouble;
  v.decoded_.d = d;
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
  if (v.kind_ == Kind::kTerm) {
    v.owned_ = std::make_shared<const Term>(term);
    v.term_ = v.owned_.get();
  }
  return v;
}

Value Value::Ref(const Term& term) {
  return Ref(&term, rdf::DecodeValue(term));
}

Value Value::Ref(const Term* term, const rdf::DecodedValue& decoded) {
  Value v;
  v.decoded_ = decoded;
  switch (decoded.kind) {
    case rdf::DecodedValue::Kind::kInt:
      v.kind_ = Kind::kInt;
      break;
    case rdf::DecodedValue::Kind::kDouble:
      v.kind_ = Kind::kDouble;
      break;
    case rdf::DecodedValue::Kind::kBool:
      v.kind_ = Kind::kBool;
      break;
    default:
      v.kind_ = Kind::kTerm;
      v.term_ = term;
      break;
  }
  return v;
}

Term Value::ToTerm() const {
  switch (kind_) {
    case Kind::kBool:
      return Term::Boolean(decoded_.b);
    case Kind::kInt:
      return Term::Integer(decoded_.i);
    case Kind::kDouble:
      return Term::Double(decoded_.d);
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
      return decoded_.b;
    case Kind::kInt:
      return decoded_.i != 0;
    case Kind::kDouble:
      return decoded_.d != 0 && !std::isnan(decoded_.d);
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

std::string Value::AsString() const {
  switch (kind_) {
    case Kind::kBool:
      return decoded_.b ? "true" : "false";
    case Kind::kInt:
      return std::to_string(decoded_.i);
    case Kind::kDouble:
      return FormatNumber(decoded_.d);
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
  auto string_like = [](const Value& v) -> std::optional<std::string_view> {
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
  auto string_like = [](const Value& v) -> std::optional<std::string_view> {
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

}  // namespace rdfa::sparql

#ifndef RDFA_SPARQL_VALUE_H_
#define RDFA_SPARQL_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "rdf/term.h"

namespace rdfa::sparql {

/// A runtime value during SPARQL expression evaluation: unbound, a decoded
/// scalar (boolean / integer / double / string), or a full RDF term. BGP
/// matching works purely on interned TermIds; Values only appear inside
/// FILTER/BIND/aggregate/projection evaluation.
class Value {
 public:
  enum class Kind { kUnbound, kBool, kInt, kDouble, kString, kTerm };

  Value() : kind_(Kind::kUnbound) {}

  static Value Unbound() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  static Value String(std::string s);
  /// Decodes `term`: numeric and boolean literals become scalars, anything
  /// else (including a malformed numeric lexical form) stays a term.
  static Value FromTerm(const rdf::Term& term);
  /// FromTerm without the copy: a term value refers to `term`, which must
  /// outlive the value (a dictionary entry or an AST constant).
  static Value Ref(const rdf::Term& term);

  Kind kind() const { return kind_; }
  bool is_unbound() const { return kind_ == Kind::kUnbound; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const rdf::Term& term() const {
    return term_ref_ != nullptr ? *term_ref_ : term_;
  }

  /// Materializes the value as an RDF term (typed literals for scalars).
  /// Precondition: not unbound.
  rdf::Term ToTerm() const;

  /// SPARQL effective boolean value; nullopt on type error / unbound.
  std::optional<bool> EffectiveBool() const;

  /// Numeric interpretation if the value is a number or a numeric literal.
  std::optional<double> AsNumeric() const;
  /// String interpretation (lexical form for terms).
  std::string AsString() const;

  /// Three-way comparison per SPARQL operator semantics: numerics by value,
  /// strings/plain literals lexically, dateTime literals lexically (ISO 8601
  /// order), booleans false<true. Returns nullopt when the operands are not
  /// comparable (type error -> FILTER evaluates to error/false).
  static std::optional<int> Compare(const Value& a, const Value& b);

  /// RDF term equality ('=' in SPARQL): numeric values compare by value,
  /// otherwise terms must be identical.
  static std::optional<bool> Equals(const Value& a, const Value& b);

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  rdf::Term term_;                       ///< owned term (FromTerm)
  const rdf::Term* term_ref_ = nullptr;  ///< referenced term (Ref)
};

/// True when `term` is a literal typed xsd:dateTime or xsd:date.
bool IsDateTimeLiteral(const rdf::Term& term);

/// Extracts a date component (1-based month/day; full year) from an ISO
/// 8601 lexical form; nullopt on malformed input. `component`: 0=year,
/// 1=month, 2=day, 3=hours, 4=minutes, 5=seconds.
std::optional<int> DateTimeComponent(const std::string& lexical,
                                     int component);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_VALUE_H_

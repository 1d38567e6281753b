#ifndef RDFA_SPARQL_VALUE_H_
#define RDFA_SPARQL_VALUE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "rdf/decoded_value.h"
#include "rdf/term.h"
#include "rdf/term_table.h"

namespace rdfa::sparql {

/// A runtime value during SPARQL expression evaluation: unbound, a decoded
/// scalar (boolean / integer / double / string), or a full RDF term. BGP
/// matching works purely on interned TermIds; Values only appear inside
/// FILTER/BIND/aggregate/projection evaluation. A term value refers to a
/// term it does not own (a dictionary entry or an AST constant) or to a
/// shared copy held out of line, and carries the term's DecodedValue, so
/// reading it as a number or a date never parses its lexical form.
class Value {
 public:
  enum class Kind { kUnbound, kBool, kInt, kDouble, kString, kTerm };

  Value() = default;

  static Value Unbound() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  static Value String(std::string s);
  /// Decodes `term` (rdf::DecodeValue): numeric and boolean literals become
  /// scalars, anything else (including a malformed numeric lexical form)
  /// stays a term.
  static Value FromTerm(const rdf::Term& term);
  /// FromTerm without the copy: a term value refers to `term`, which must
  /// outlive the value (a dictionary entry or an AST constant).
  static Value Ref(const rdf::Term& term);
  /// Ref with `term`'s decode already in hand. `term` is read only when
  /// `decoded` is not a scalar, and may be null when it is.
  static Value Ref(const rdf::Term* term, const rdf::DecodedValue& decoded);
  /// The value of dictionary entry `id`: one load of its decoded value, and
  /// for terms a reference to the entry.
  static Value OfId(const rdf::TermTable& terms, rdf::TermId id) {
    const rdf::DecodedValue& d = terms.Decoded(id);
    return Ref(d.is_scalar() ? nullptr : &terms.Get(id), d);
  }

  Kind kind() const { return kind_; }
  bool is_unbound() const { return kind_ == Kind::kUnbound; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  bool bool_value() const { return decoded_.b; }
  int64_t int_value() const { return decoded_.i; }
  const std::string& string_value() const { return string_; }
  const rdf::Term& term() const { return *term_; }
  /// The term's decode for kTerm values; the scalar itself for kBool, kInt
  /// and kDouble.
  const rdf::DecodedValue& decoded() const { return decoded_; }

  /// Materializes the value as an RDF term (typed literals for scalars).
  /// Precondition: not unbound.
  rdf::Term ToTerm() const;

  /// SPARQL effective boolean value; nullopt on type error / unbound.
  std::optional<bool> EffectiveBool() const;

  /// Numeric interpretation if the value is a number or a numeric literal.
  std::optional<double> AsNumeric() const {
    if (is_numeric() || (kind_ == Kind::kTerm && decoded_.is_number())) {
      return decoded_.number();
    }
    return std::nullopt;
  }
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
  Kind kind_ = Kind::kUnbound;
  rdf::DecodedValue decoded_;          ///< scalar, or the term's decode
  const rdf::Term* term_ = nullptr;    ///< kTerm: referenced or owned_
  std::shared_ptr<const rdf::Term> owned_;  ///< FromTerm's copy
  std::string string_;                 ///< kString
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_VALUE_H_

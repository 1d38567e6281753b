#ifndef RDFA_RDF_DECODED_VALUE_H_
#define RDFA_RDF_DECODED_VALUE_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "rdf/term.h"

namespace rdfa::rdf {

/// A term's typed value, decoded once from its lexical form. DecodeValue is
/// the engine's one rule for reading a literal as a number, a boolean or a
/// date: TermTable keeps its result per id, and sparql::Value is built on
/// it, so expression evaluation never parses a lexical form per row.
/// Trivially copyable, 16 bytes.
struct DecodedValue {
  enum class Kind : uint8_t {
    /// No typed value: IRIs, blank nodes, strings, malformed lexical forms.
    kTerm,
    /// xsd:integer, xsd:int or xsd:long within int64: `i`.
    kInt,
    /// xsd:double, xsd:decimal or xsd:float, or an integer form outside
    /// int64: `d`.
    kDouble,
    /// xsd:boolean "true"/"1" or "false"/"0": `b`.
    kBool,
    /// Stays a term, but orders and sums as the number `d`: a numeric
    /// datatype whose form only strtod reads ("1e1"^^xsd:integer), or a plain
    /// literal that looks numeric ("42").
    kNumericTerm,
    /// Stays a term whose form starts YYYY-MM-DD: year, month and day in
    /// `date` (year << 16 | month << 8 | day).
    kDate,
  };

  Kind kind = Kind::kTerm;
  union {
    int64_t i;
    double d;
    bool b;
    uint32_t date;
  };

  DecodedValue() : i(0) {}

  /// True for the kinds a sparql::Value holds as a scalar, not a term.
  bool is_scalar() const {
    return kind == Kind::kInt || kind == Kind::kDouble || kind == Kind::kBool;
  }
  /// True when the term has a numeric interpretation.
  bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble ||
           kind == Kind::kNumericTerm;
  }
  /// The numeric interpretation. Precondition: is_number().
  double number() const {
    return kind == Kind::kInt ? static_cast<double>(i) : d;
  }
  /// Year (0), month (1) or day (2). Precondition: kind == kDate.
  int DatePart(int component) const {
    return static_cast<int>(component == 0   ? date >> 16
                            : component == 1 ? (date >> 8) & 0xff
                                             : date & 0xff);
  }
};

/// Decodes `term` (see DecodedValue). Numeric datatypes read their lexical
/// form with strtoll/strtod and must consume it whole; an integer form
/// outside int64 decodes as a double.
DecodedValue DecodeValue(const Term& term);

/// Extracts a date component (full year; 1-based month and day) from an
/// ISO 8601 lexical form; nullopt on malformed input. `component`: 0=year,
/// 1=month, 2=day, 3=hours, 4=minutes, 5=seconds.
std::optional<int> DateTimeComponent(std::string_view lexical, int component);

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_DECODED_VALUE_H_

#ifndef RDFA_RDF_TERM_H_
#define RDFA_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rdfa::rdf {

/// Identifier of an interned term inside a TermTable. Ids are dense and
/// start at 0; kNoTermId never names a term and doubles as the wildcard in
/// pattern matching.
using TermId = uint32_t;
inline constexpr TermId kNoTermId = UINT32_MAX;

/// The three RDF term kinds. Blank nodes are kept distinct from IRIs so
/// generated datasets (e.g. a reloaded answer frame) can mint fresh nodes.
enum class TermKind : uint8_t {
  kIri = 0,
  kBlankNode = 1,
  kLiteral = 2,
};

/// One RDF term: an IRI, a blank node label, or a literal with optional
/// datatype IRI and language tag. Plain value type; compare with ==.
class Term {
 public:
  Term() : kind_(TermKind::kIri) {}

  /// Factory functions — the only way terms should be built.
  static Term Iri(std::string iri);
  static Term Blank(std::string label);
  /// A plain literal (xsd:string by convention, datatype left empty).
  static Term Literal(std::string lexical);
  static Term TypedLiteral(std::string lexical, std::string datatype_iri);
  static Term LangLiteral(std::string lexical, std::string lang);
  /// Convenience typed-literal builders for the XSD types the engine uses.
  static Term Integer(int64_t value);
  static Term Double(double value);
  static Term Boolean(bool value);
  /// xsd:dateTime literal from its lexical form (no validation).
  static Term DateTime(std::string lexical);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }

  /// The IRI string, blank label, or literal lexical form.
  const std::string& lexical() const { return lexical_; }
  /// Datatype IRI; empty for plain literals and non-literals.
  const std::string& datatype() const { return datatype_; }
  /// BCP47 language tag; empty unless a language-tagged literal.
  const std::string& lang() const { return lang_; }

  /// True if the literal's datatype is one of the XSD numeric types (or it
  /// is a plain literal that lexically parses as a number).
  bool IsNumericLiteral() const;

  /// N-Triples-style rendering: <iri>, _:label, "lex"^^<dt>, "lex"@lang.
  std::string ToNTriples() const;
  /// ToNTriples, appended to `*out`.
  void AppendNTriples(std::string* out) const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.lexical_ == b.lexical_ &&
           a.datatype_ == b.datatype_ && a.lang_ == b.lang_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  /// Hash combining all fields; used by TermTable.
  size_t Hash() const;

 private:
  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string lang_;
};

/// A triple of interned term ids. The subject/predicate/object are ids into
/// the owning graph's TermTable.
struct TripleId {
  TermId s = kNoTermId;
  TermId p = kNoTermId;
  TermId o = kNoTermId;

  friend bool operator==(const TripleId& a, const TripleId& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
};

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_TERM_H_

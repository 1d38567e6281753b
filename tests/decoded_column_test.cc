// The decoded-value column beside the term dictionary: every id's
// TermTable::Decoded entry equals DecodeValue of its term, on the heap and
// on a mapped snapshot's lazily decoded dictionary, and DecodeValue reads
// the edge cases of the lexical forms as the expression evaluator always
// has (malformed forms stay terms).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/binary_io.h"
#include "rdf/decoded_value.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "rdf/rdfs.h"
#include "sparql/value.h"
#include "test_paths.h"
#include "workload/products.h"

namespace rdfa::rdf {
namespace {

using Kind = DecodedValue::Kind;

// Field-wise equality of two decodes: the payload a kind uses, bit for bit
// (so NaN equals NaN and -0.0 differs from 0.0).
bool SameDecode(const DecodedValue& a, const DecodedValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kTerm:
      return true;
    case Kind::kInt:
      return a.i == b.i;
    case Kind::kBool:
      return a.b == b.b;
    case Kind::kDate:
      return a.date == b.date;
    case Kind::kDouble:
    case Kind::kNumericTerm:
      return std::memcmp(&a.d, &b.d, sizeof(double)) == 0;
  }
  return false;
}

std::string Describe(const DecodedValue& d) {
  switch (d.kind) {
    case Kind::kTerm: return "term";
    case Kind::kInt: return "int " + std::to_string(d.i);
    case Kind::kDouble: return "double " + std::to_string(d.d);
    case Kind::kBool: return d.b ? "bool true" : "bool false";
    case Kind::kNumericTerm: return "numeric term " + std::to_string(d.d);
    case Kind::kDate:
      return "date " + std::to_string(d.DatePart(0)) + "-" +
             std::to_string(d.DatePart(1)) + "-" +
             std::to_string(d.DatePart(2));
  }
  return "?";
}

struct EdgeCase {
  Term term;
  Kind kind;
  double number = 0;  ///< kInt, kDouble, kNumericTerm; 1/0 for kBool
  int year = 0, month = 0, day = 0;  ///< kDate
};

std::vector<EdgeCase> EdgeCorpus() {
  const double inf = HUGE_VAL;
  return {
      {Term::TypedLiteral("42", xsd::kInteger), Kind::kInt, 42},
      {Term::TypedLiteral("abc", xsd::kInteger), Kind::kTerm},
      {Term::TypedLiteral(" 12", xsd::kInt), Kind::kInt, 12},
      {Term::TypedLiteral("+7", xsd::kLong), Kind::kInt, 7},
      {Term::TypedLiteral("12abc", xsd::kInteger), Kind::kTerm},
      {Term::TypedLiteral("1e1", xsd::kInteger), Kind::kNumericTerm, 10},
      {Term::TypedLiteral("1.5", xsd::kInteger), Kind::kNumericTerm, 1.5},
      {Term::TypedLiteral("", xsd::kInteger), Kind::kInt, 0},
      {Term::TypedLiteral("9223372036854775807", xsd::kInteger), Kind::kInt,
       static_cast<double>(INT64_MAX)},
      {Term::TypedLiteral("-9223372036854775808", xsd::kInteger), Kind::kInt,
       static_cast<double>(INT64_MIN)},
      // Outside int64: a double, not strtoll's clamp to INT64_MAX.
      {Term::TypedLiteral("9223372036854775808", xsd::kInteger),
       Kind::kDouble, 9223372036854775808.0},
      {Term::TypedLiteral("12345678901234567890", xsd::kInteger),
       Kind::kDouble, 12345678901234567890.0},
      {Term::TypedLiteral("-99999999999999999999", xsd::kLong), Kind::kDouble,
       -99999999999999999999.0},
      {Term::TypedLiteral("1e400", xsd::kDouble), Kind::kDouble, inf},
      {Term::TypedLiteral("-1e400", xsd::kFloat), Kind::kDouble, -inf},
      {Term::TypedLiteral("2.5E1", xsd::kDouble), Kind::kDouble, 25},
      {Term::TypedLiteral("1.50", xsd::kDecimal), Kind::kDouble, 1.5},
      {Term::TypedLiteral("x1", xsd::kDecimal), Kind::kTerm},
      {Term::TypedLiteral("true", xsd::kBoolean), Kind::kBool, 1},
      {Term::TypedLiteral("1", xsd::kBoolean), Kind::kBool, 1},
      {Term::TypedLiteral("false", xsd::kBoolean), Kind::kBool, 0},
      {Term::TypedLiteral("0", xsd::kBoolean), Kind::kBool, 0},
      {Term::TypedLiteral("TRUE", xsd::kBoolean), Kind::kTerm},
      {Term::TypedLiteral("yes", xsd::kBoolean), Kind::kTerm},
      {Term::TypedLiteral("2021-03-04", xsd::kDate), Kind::kDate, 0, 2021, 3,
       4},
      {Term::TypedLiteral("2020-01-02T03:04:05Z", xsd::kDateTime), Kind::kDate,
       0, 2020, 1, 2},
      {Term::TypedLiteral("2019-12-31T23:59:59+02:00", xsd::kDateTime),
       Kind::kDate, 0, 2019, 12, 31},
      {Term::TypedLiteral("2018-06-07-05:00", xsd::kDate), Kind::kDate, 0,
       2018, 6, 7},
      {Term::TypedLiteral("20-1", xsd::kDate), Kind::kTerm},
      {Term::TypedLiteral("2020-xx-01", xsd::kDate), Kind::kTerm},
      {Term::Literal("2017-05-06"), Kind::kDate, 0, 2017, 5, 6},
      {Term::Literal("42"), Kind::kNumericTerm, 42},
      {Term::Literal("-4.5"), Kind::kNumericTerm, -4.5},
      {Term::Literal("4e2"), Kind::kTerm},
      {Term::Literal("abc"), Kind::kTerm},
      {Term::Literal(""), Kind::kTerm},
      {Term::LangLiteral("42", "en"), Kind::kTerm},
      {Term::LangLiteral("3.5", "de"), Kind::kTerm},
      {Term::TypedLiteral("42", xsd::kString), Kind::kTerm},
      {Term::Iri("http://example.org/42"), Kind::kTerm},
      {Term::Iri("2020-01-01"), Kind::kTerm},
      {Term::Blank("7"), Kind::kTerm},
  };
}

TEST(DecodedValueTest, EdgeCorpusDecodesAsTheEvaluatorReadsIt) {
  for (const EdgeCase& c : EdgeCorpus()) {
    const DecodedValue d = DecodeValue(c.term);
    const std::string what = c.term.ToNTriples() + " -> " + Describe(d);
    ASSERT_EQ(d.kind, c.kind) << what;
    switch (c.kind) {
      case Kind::kInt:
      case Kind::kDouble:
      case Kind::kNumericTerm:
        EXPECT_TRUE(d.is_number()) << what;
        EXPECT_EQ(d.number(), c.number) << what;
        break;
      case Kind::kBool:
        EXPECT_EQ(d.b, c.number != 0) << what;
        break;
      case Kind::kDate:
        EXPECT_EQ(d.DatePart(0), c.year) << what;
        EXPECT_EQ(d.DatePart(1), c.month) << what;
        EXPECT_EQ(d.DatePart(2), c.day) << what;
        break;
      case Kind::kTerm:
        EXPECT_FALSE(d.is_number()) << what;
        break;
    }
    if (c.kind == Kind::kInt) {
      EXPECT_EQ(static_cast<double>(d.i), c.number) << what;
    }
  }
}

TEST(DecodedValueTest, ValuesReadTheDecodeWithoutParsing) {
  // A Value built from a term reads as the decode says: scalars for
  // numbers and booleans, terms (that may still order as numbers) for the
  // rest.
  for (const EdgeCase& c : EdgeCorpus()) {
    const sparql::Value v = sparql::Value::Ref(c.term);
    const std::string what = c.term.ToNTriples();
    switch (c.kind) {
      case Kind::kInt:
        EXPECT_EQ(v.kind(), sparql::Value::Kind::kInt) << what;
        break;
      case Kind::kDouble:
        EXPECT_EQ(v.kind(), sparql::Value::Kind::kDouble) << what;
        break;
      case Kind::kBool:
        EXPECT_EQ(v.kind(), sparql::Value::Kind::kBool) << what;
        break;
      default:
        EXPECT_EQ(v.kind(), sparql::Value::Kind::kTerm) << what;
        EXPECT_EQ(v.term(), c.term) << what;
        break;
    }
    EXPECT_EQ(v.AsNumeric().has_value(), c.kind == Kind::kInt ||
                                             c.kind == Kind::kDouble ||
                                             c.kind == Kind::kNumericTerm)
        << what;
  }
}

// Every id of `terms` against the reference decode of its term. Reads the
// decoded column first on every other chunk, so both entry points
// materialize chunks of a mapped dictionary.
void ExpectColumnMatchesReference(const TermTable& terms) {
  ASSERT_GT(terms.size(), 0u);
  for (size_t id = terms.size(); id-- > 0;) {
    const TermId t = static_cast<TermId>(id);
    if (id % 2 == 0) {
      const DecodedValue column = terms.Decoded(t);
      ASSERT_TRUE(SameDecode(column, DecodeValue(terms.Get(t))))
          << terms.Get(t).ToNTriples() << ": column " << Describe(column);
    } else {
      const DecodedValue reference = DecodeValue(terms.Get(t));
      ASSERT_TRUE(SameDecode(terms.Decoded(t), reference))
          << terms.Get(t).ToNTriples() << ": reference "
          << Describe(reference);
    }
  }
}

std::unique_ptr<Graph> ProductKgWithEdgeCorpus() {
  auto g = std::make_unique<Graph>();
  workload::ProductKgOptions opt;
  opt.laptops = 300;
  opt.missing_price_rate = 0.1;
  workload::GenerateProductKg(g.get(), opt);
  MaterializeRdfsClosure(g.get());
  const Term item = Term::Iri("urn:edge:item");
  int i = 0;
  for (const EdgeCase& c : EdgeCorpus()) {
    g->Add(item, Term::Iri("urn:edge:p" + std::to_string(i++)), c.term);
  }
  return g;
}

TEST(DecodedColumnTest, HeapDictionaryMatchesTheReferenceDecode) {
  auto g = ProductKgWithEdgeCorpus();
  ExpectColumnMatchesReference(g->terms());
  // The column holds typed values, not just terms.
  size_t ints = 0, doubles = 0, dates = 0;
  for (size_t id = 0; id < g->terms().size(); ++id) {
    const Kind k = g->terms().Decoded(static_cast<TermId>(id)).kind;
    ints += k == Kind::kInt;
    doubles += k == Kind::kDouble;
    dates += k == Kind::kDate;
  }
  EXPECT_GT(ints, 10u);
  EXPECT_GT(doubles, 2u);
  EXPECT_GT(dates, 10u);
}

TEST(DecodedColumnTest, MappedDictionaryMatchesTheReferenceDecode) {
  auto g = ProductKgWithEdgeCorpus();
  const std::string path = test::UniqueTempPath("decoded.rdfa");
  ASSERT_TRUE(SaveBinaryFile(*g, path).ok());
  auto mapped = OpenMappedSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::remove(path.c_str());  // the mapping outlives the directory entry
  Graph& m = *mapped.value();
  ASSERT_NE(m.mapped(), nullptr);
  ASSERT_EQ(m.terms().size(), g->terms().size());
  ExpectColumnMatchesReference(m.terms());
  for (size_t id = 0; id < g->terms().size(); ++id) {
    const TermId t = static_cast<TermId>(id);
    ASSERT_TRUE(SameDecode(m.terms().Decoded(t), g->terms().Decoded(t)));
  }
  // Terms interned past the dictionary decode on append.
  const TermId fresh =
      m.terms().Intern(Term::TypedLiteral("-17", xsd::kInteger));
  ASSERT_GE(fresh, g->terms().size());
  EXPECT_EQ(m.terms().Decoded(fresh).kind, Kind::kInt);
  EXPECT_EQ(m.terms().Decoded(fresh).i, -17);
  ExpectColumnMatchesReference(m.terms());
}

TEST(DecodedColumnTest, MovedTableKeepsItsColumn) {
  TermTable a;
  const TermId id = a.Intern(Term::TypedLiteral("2.5", xsd::kDouble));
  TermTable b = std::move(a);
  EXPECT_EQ(b.Decoded(id).kind, Kind::kDouble);
  EXPECT_EQ(b.Decoded(id).d, 2.5);
  EXPECT_EQ(a.size(), 0u);
}

}  // namespace
}  // namespace rdfa::rdf

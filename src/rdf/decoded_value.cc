#include "rdf/decoded_value.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "rdf/namespaces.h"

namespace rdfa::rdf {

DecodedValue DecodeValue(const Term& term) {
  DecodedValue out;
  if (!term.is_literal()) return out;
  // A view compares lengths before characters: most datatype IRIs differ
  // from most of these in length, and all share a 33-character prefix.
  const std::string_view dt = term.datatype();
  const std::string& lexical = term.lexical();
  char* end = nullptr;
  if (dt == xsd::kInteger || dt == xsd::kInt || dt == xsd::kLong) {
    errno = 0;
    const long long parsed = std::strtoll(lexical.c_str(), &end, 10);
    if (*end == '\0') {
      if (errno == ERANGE) {
        out.kind = DecodedValue::Kind::kDouble;
        out.d = std::strtod(lexical.c_str(), nullptr);
      } else {
        out.kind = DecodedValue::Kind::kInt;
        out.i = parsed;
      }
      return out;
    }
  } else if (dt == xsd::kDouble || dt == xsd::kDecimal || dt == xsd::kFloat) {
    const double parsed = std::strtod(lexical.c_str(), &end);
    if (*end == '\0') {
      out.kind = DecodedValue::Kind::kDouble;
      out.d = parsed;
      return out;
    }
  } else if (dt == xsd::kBoolean) {
    if (lexical == "true" || lexical == "1" || lexical == "false" ||
        lexical == "0") {
      out.kind = DecodedValue::Kind::kBool;
      out.b = lexical == "true" || lexical == "1";
      return out;
    }
  }
  if (term.IsNumericLiteral()) {
    const double parsed = std::strtod(lexical.c_str(), &end);
    if (*end == '\0') {
      out.kind = DecodedValue::Kind::kNumericTerm;
      out.d = parsed;
      return out;
    }
  }
  const auto year = DateTimeComponent(lexical, 0);
  const auto month = DateTimeComponent(lexical, 1);
  const auto day = DateTimeComponent(lexical, 2);
  if (year.has_value() && month.has_value() && day.has_value()) {
    out.kind = DecodedValue::Kind::kDate;
    out.date = static_cast<uint32_t>(*year) << 16 |
               static_cast<uint32_t>(*month) << 8 |
               static_cast<uint32_t>(*day);
  }
  return out;
}

std::optional<int> DateTimeComponent(std::string_view lexical,
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

}  // namespace rdfa::rdf

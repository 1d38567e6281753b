#ifndef RDFA_COMMON_STRING_UTIL_H_
#define RDFA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace rdfa {

/// Splits `input` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality (used for SPARQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Uppercases ASCII letters.
std::string ToUpperAscii(std::string_view s);
/// Lowercases ASCII letters.
std::string ToLowerAscii(std::string_view s);

/// Appends `s` escaped for use inside a double-quoted JSON string: quotes
/// and backslashes are backslash-escaped, \n \r \t keep their short
/// escapes, and every other byte below 0x20 becomes \u00XX. Runs of bytes
/// that need no escaping are copied in one append. The one JSON escaper in
/// the tree: the SPARQL JSON results writer, ExecStats::ToJson, the tracer's
/// Chrome-trace export, the structured query log and bench_util's
/// JsonObject all go through it, so no JSON emitter can produce an
/// unparsable document from a hostile string (a query text with an
/// embedded newline, say).
void AppendJsonEscaped(std::string* out, std::string_view s);
/// AppendJsonEscaped into a fresh string.
std::string JsonEscape(std::string_view s);

/// Appends `s` escaped for use inside a double-quoted N-Triples / SPARQL
/// literal (quote, backslash, \n, \r, \t).
void AppendLiteralEscaped(std::string* out, std::string_view s);
/// AppendLiteralEscaped into a fresh string.
std::string EscapeLiteral(std::string_view s);
/// Reverses EscapeLiteral; unknown escapes are kept verbatim.
std::string UnescapeLiteral(std::string_view s);

/// Appends `s` escaped for XML character data and attribute values
/// (&, <, >, ").
void AppendXmlEscaped(std::string* out, std::string_view s);

/// Formats a double the way SPARQL results print plain decimals: integral
/// values have no trailing ".0"; otherwise up to 6 significant decimals with
/// trailing zeros removed.
std::string FormatNumber(double v);

}  // namespace rdfa

#endif  // RDFA_COMMON_STRING_UTIL_H_

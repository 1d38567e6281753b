#include "common/string_util.h"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace rdfa {

std::vector<std::string> SplitString(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

namespace {

// Appends `s` to `*out`, copying runs of bytes that need no escaping in one
// append each. `special` flags the bytes that may need escaping;
// `escape(c, buf)` returns the replacement for such a byte (which may be
// rendered into the 8-byte `buf`).
template <typename EscapeFn>
void AppendWithEscapes(std::string* out, std::string_view s,
                       const std::array<bool, 256>& special, EscapeFn escape) {
  char buf[8];
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!special[static_cast<unsigned char>(s[i])]) continue;
    out->append(s.data() + run, i - run);
    out->append(escape(s[i], buf));
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

constexpr std::array<bool, 256> SpecialBytes(std::string_view bytes,
                                              bool controls) {
  std::array<bool, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = controls;
  for (char c : bytes) t[static_cast<unsigned char>(c)] = true;
  return t;
}

// The backslash escapes JSON strings and N-Triples literals share; nullptr
// for any other byte.
const char* BackslashEscape(char c) {
  switch (c) {
    case '\\': return "\\\\";
    case '"': return "\\\"";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: return nullptr;
  }
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr std::array<bool, 256> kSpecial =
      SpecialBytes("\\\"\n\r\t", true);
  AppendWithEscapes(out, s, kSpecial, [](char c, char* buf) {
    if (const char* named = BackslashEscape(c)) return named;
    std::snprintf(buf, 8, "\\u%04x",
                  static_cast<unsigned>(static_cast<unsigned char>(c)));
    return static_cast<const char*>(buf);
  });
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

void AppendLiteralEscaped(std::string* out, std::string_view s) {
  static constexpr std::array<bool, 256> kSpecial =
      SpecialBytes("\\\"\n\r\t", false);
  AppendWithEscapes(out, s, kSpecial,
                    [](char c, char*) { return BackslashEscape(c); });
}

std::string EscapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendLiteralEscaped(&out, s);
  return out;
}

void AppendXmlEscaped(std::string* out, std::string_view s) {
  static constexpr std::array<bool, 256> kSpecial =
      SpecialBytes("&<>\"", false);
  AppendWithEscapes(out, s, kSpecial, [](char c, char*) -> const char* {
    switch (c) {
      case '&': return "&amp;";
      case '<': return "&lt;";
      case '>': return "&gt;";
      default: return "&quot;";
    }
  });
}

std::string UnescapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      default:
        out += '\\';
        out += s[i];
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string out(buf);
  // Strip trailing zeros but keep at least one decimal digit.
  size_t dot = out.find('.');
  if (dot != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (last == dot) last = dot + 1;
    out.erase(last + 1);
  }
  return out;
}

}  // namespace rdfa

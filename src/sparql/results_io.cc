#include "sparql/results_io.h"

#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace rdfa::sparql {

namespace {

// Every writer appends into one string reserved up front from a guess of
// the bytes a cell takes in its format (large answers then regrow at most
// once or twice).
std::string Reserved(const ResultTable& table, size_t bytes_per_cell) {
  std::string out;
  out.reserve(256 + table.num_rows() * (table.num_columns() + 1) *
                        bytes_per_cell);
  return out;
}

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  AppendJsonEscaped(out, s);
  *out += '"';
}

void AppendJsonCell(std::string* out, const rdf::Term& t) {
  if (t.is_iri()) {
    *out += "{\"type\":\"uri\",\"value\":";
  } else if (t.is_blank()) {
    *out += "{\"type\":\"bnode\",\"value\":";
  } else {
    *out += "{\"type\":\"literal\",\"value\":";
  }
  AppendJsonString(out, t.lexical());
  if (t.is_literal()) {
    if (!t.lang().empty()) {
      *out += ",\"xml:lang\":";
      AppendJsonString(out, t.lang());
    } else if (!t.datatype().empty()) {
      *out += ",\"datatype\":";
      AppendJsonString(out, t.datatype());
    }
  }
  *out += '}';
}

void AppendCsvCell(std::string* out, const rdf::Term& t) {
  if (ResultTable::IsUnbound(t)) return;
  const std::string& v = t.lexical();
  if (v.find_first_of(",\"\n\r") == std::string::npos) {
    *out += v;
    return;
  }
  *out += '"';
  for (char c : v) {
    if (c == '"') *out += '"';  // quotes double inside a quoted field
    *out += c;
  }
  *out += '"';
}

}  // namespace

std::string WriteResultsJson(const ResultTable& table) {
  std::string out = Reserved(table, 96);
  // Column keys are escaped once, not once per cell.
  std::vector<std::string> keys(table.num_columns());
  out += "{\"head\":{\"vars\":[";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    AppendJsonString(&keys[c], table.columns()[c]);
    if (c > 0) out += ',';
    out += keys[c];
    keys[c] += ':';
  }
  out += "]},\"results\":{\"bindings\":[";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out += ',';
    out += '{';
    bool first = true;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const rdf::Term& t = table.at(r, c);
      if (ResultTable::IsUnbound(t)) continue;  // omitted, per spec
      if (!first) out += ',';
      first = false;
      out += keys[c];
      AppendJsonCell(&out, t);
    }
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string WriteResultsCsv(const ResultTable& table) {
  std::string out = Reserved(table, 48);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ',';
    out += table.columns()[c];
  }
  out += "\r\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      AppendCsvCell(&out, table.at(r, c));
    }
    out += "\r\n";
  }
  return out;
}

std::string WriteResultsTsv(const ResultTable& table) {
  std::string out = Reserved(table, 48);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += '\t';
    out += '?';
    out += table.columns()[c];
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += '\t';
      const rdf::Term& t = table.at(r, c);
      if (!ResultTable::IsUnbound(t)) t.AppendNTriples(&out);
    }
    out += '\n';
  }
  return out;
}

std::string WriteResultsXml(const ResultTable& table) {
  std::string out = Reserved(table, 96);
  out +=
      "<?xml version=\"1.0\"?>\n"
      "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n  <head>\n";
  for (const std::string& col : table.columns()) {
    out += "    <variable name=\"";
    AppendXmlEscaped(&out, col);
    out += "\"/>\n";
  }
  out += "  </head>\n  <results>\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out += "    <result>\n";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const rdf::Term& t = table.at(r, c);
      if (ResultTable::IsUnbound(t)) continue;
      out += "      <binding name=\"";
      AppendXmlEscaped(&out, table.columns()[c]);
      out += "\">";
      const char* close;
      if (t.is_iri()) {
        out += "<uri>";
        close = "</uri>";
      } else if (t.is_blank()) {
        out += "<bnode>";
        close = "</bnode>";
      } else if (!t.lang().empty()) {
        out += "<literal xml:lang=\"";
        AppendXmlEscaped(&out, t.lang());
        out += "\">";
        close = "</literal>";
      } else if (!t.datatype().empty()) {
        out += "<literal datatype=\"";
        AppendXmlEscaped(&out, t.datatype());
        out += "\">";
        close = "</literal>";
      } else {
        out += "<literal>";
        close = "</literal>";
      }
      AppendXmlEscaped(&out, t.lexical());
      out += close;
      out += "</binding>\n";
    }
    out += "    </result>\n";
  }
  out += "  </results>\n</sparql>\n";
  return out;
}

}  // namespace rdfa::sparql

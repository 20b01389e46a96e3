// What the metrics and trace exporters share to write JSON.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace repro::perf {

// A numeric JSON field: %.9g keeps full useful precision and stays a
// valid JSON number.
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// `s` escaped for a JSON string literal: '"', '\\', newline and tab by
// their short escapes, any other control character as \u00XX.
inline std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Writes `text` to `path`. Throws util::Error naming `what` ("metrics",
// "trace") when the file cannot be opened or written.
inline void write_json_file(const std::string& path, const std::string& text,
                            const char* what) {
  std::ofstream out(path);
  REPRO_REQUIRE(out.good(), std::string("cannot open ") + what +
                                " output file: " + path);
  out << text;
  REPRO_REQUIRE(out.good(), std::string("failed writing ") + what +
                                " output file: " + path);
}

}  // namespace repro::perf

// Strict parsing of what a user types: the numbers in flags and
// environment variables, and the four spec grammars (--decomp, --faults,
// --topology, --power) built from split, key_value and the *_field
// parsers below.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace repro::util {

// The whole of `text` as a decimal integer in [lo, hi], or nullopt.
// Unlike std::atoi and std::stoi, this rejects trailing garbage ("4x"),
// empty or non-numeric input (which atoi folds to 0), a leading '+' or
// whitespace, and values that overflow Int.
template <class Int>
std::optional<Int> parse_int(std::string_view text, Int lo, Int hi) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

// The whole of `text` as a finite decimal floating-point number (an
// optional '-', digits with an optional fraction and exponent), or
// nullopt. Unlike std::strtod and std::stod, this rejects leading
// whitespace or '+', hex floats ("0x10"), "inf" and "nan", values that
// overflow a double, and trailing garbage.
inline std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// --- spec grammars ---------------------------------------------------------
// Every field `sep` separates, empty ones included: "a,,b" gives
// {"a", "", "b"} and "" gives {""}. No grammar has an empty key or
// option, so every grammar refuses an empty field the same way.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  for (std::size_t next; (next = text.find(sep, pos)) != text.npos;
       pos = next + 1) {
    fields.push_back(text.substr(pos, next - pos));
  }
  fields.push_back(text.substr(pos));
  return fields;
}

// A field split at its first '='; a bare word has no value.
struct KeyValue {
  std::string_view key;
  std::string_view value;
  bool has_value = false;  // whether the field had an '='
};

inline KeyValue key_value(std::string_view field) {
  const std::size_t eq = field.find('=');
  if (eq == field.npos) return {field, {}, false};
  return {field.substr(0, eq), field.substr(eq + 1), true};
}

// Throws "<grammar> spec: bad <field> value '<text>' (expected ...)".
[[noreturn]] inline void bad_field(std::string_view grammar,
                                   std::string_view field,
                                   std::string_view text,
                                   std::string_view expected) {
  throw Error(std::string(grammar) + " spec: bad " + std::string(field) +
              " value '" + std::string(text) + "' (expected " +
              std::string(expected) + ")");
}

// `text` as an integer in [lo, hi], or a bad_field error. A grammar's
// own validate() checks ranges narrower than the int's.
inline int int_field(std::string_view grammar, std::string_view field,
                     std::string_view text,
                     int lo = std::numeric_limits<int>::min(),
                     int hi = std::numeric_limits<int>::max()) {
  if (const std::optional<int> v = parse_int(text, lo, hi)) return *v;
  bad_field(grammar, field, text,
            "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
}

// `text` as a finite decimal number, or a bad_field error.
inline double real_field(std::string_view grammar, std::string_view field,
                         std::string_view text) {
  if (const std::optional<double> v = parse_double(text)) return *v;
  bad_field(grammar, field, text, "a finite decimal number");
}

}  // namespace repro::util

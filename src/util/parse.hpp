// Strict parsing of the numbers a user types (flags, environment
// variables, decomposition, topology, fault and power specs).
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

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

}  // namespace repro::util

// Strict parsing of the integers a user types (flags, environment
// variables, decomposition specs).
#pragma once

#include <charconv>
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

}  // namespace repro::util

// Plain-text table formatting for benchmark/figure output.
//
// The figure harnesses print the same rows/series the paper plots; a small
// fixed-width table keeps that output readable and diffable.
#pragma once

#include <string>
#include <vector>

namespace repro::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends a row; the row must have the same number of cells as the header.
  void add_row(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);
  static std::string pct(double fraction, int precision = 1);

  // Renders with aligned columns and a separator under the header.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace repro::util

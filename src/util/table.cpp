#include "util/table.hpp"

#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace repro::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  REPRO_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  REPRO_REQUIRE(row.size() == header_.size(),
                "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << "\n";
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule += std::string(width[c], '-');
    if (c + 1 < header_.size()) rule += "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace repro::util

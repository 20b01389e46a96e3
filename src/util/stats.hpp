// Small running-statistics accumulator (count/mean/min/max/stddev).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace repro::util {

class RunningStats {
 public:
  void add(double x) {
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    // Welford update keeps the variance numerically stable.
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace repro::util

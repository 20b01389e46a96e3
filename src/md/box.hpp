// Orthorhombic periodic box with minimum-image convention.
#pragma once

#include <cmath>

#include "util/error.hpp"
#include "util/vec3.hpp"

namespace repro::md {

using util::Vec3;

// std::nearbyint(q) in the default rounding mode, as plain arithmetic: no
// libm call, and it vectorizes on the baseline x86-64 target (which has no
// packed round instruction). Adding 1.5 * 2^52 leaves no fraction bits, so
// the sum rounds q half-to-even; subtracting it back is exact. Exact for
// |q| < 2^51. Only the sign of a zero result can differ from nearbyint
// (this gives +0 where nearbyint may give -0), and subtracting l * 0
// leaves a nonzero displacement unchanged either way.
inline double round_half_even(double q) {
  constexpr double kShift = 0x1.8p52;
  return (q + kShift) - kShift;
}

class Box {
 public:
  Box() = default;
  Box(double lx, double ly, double lz) : l_{lx, ly, lz} {
    REPRO_REQUIRE(lx > 0 && ly > 0 && lz > 0, "box lengths must be positive");
  }

  double lx() const { return l_.x; }
  double ly() const { return l_.y; }
  double lz() const { return l_.z; }
  Vec3 lengths() const { return l_; }
  double volume() const { return l_.x * l_.y * l_.z; }
  double min_length() const {
    return std::min(l_.x, std::min(l_.y, l_.z));
  }

  // Minimum-image displacement of d (valid when |d| components < 1.5 L).
  Vec3 min_image(Vec3 d) const {
    d.x -= l_.x * round_half_even(d.x / l_.x);
    d.y -= l_.y * round_half_even(d.y / l_.y);
    d.z -= l_.z * round_half_even(d.z / l_.z);
    return d;
  }

  // Wraps a position into [0, L) per dimension.
  Vec3 wrap(Vec3 r) const {
    r.x -= l_.x * std::floor(r.x / l_.x);
    r.y -= l_.y * std::floor(r.y / l_.y);
    r.z -= l_.z * std::floor(r.z / l_.z);
    return r;
  }

 private:
  Vec3 l_{1.0, 1.0, 1.0};
};

}  // namespace repro::md

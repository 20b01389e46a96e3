// Cardinal B-splines for smooth particle-mesh Ewald (Essmann et al. 1995).
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace repro::pme {

// Maximum supported interpolation order (CHARMM uses 4 or 6).
inline constexpr int kMaxOrder = 8;

// Computes vals[j] = M_n(w + j) and derivs[j] = M_n'(w + j) for
// j = 0 .. order-1, where M_n is the cardinal B-spline of order n and
// w in [0, 1) is the fractional offset. A point charge at fractional grid
// coordinate u = k0 + w (k0 = floor(u)) spreads onto grid lines
// (k0 - j) mod N with weight vals[j].
void bspline_weights(int order, double w, double* vals, double* derivs);

// Batched variant for the PME stencil (SplineStencil::load in pme.hpp):
// computes the same weights for nw fractional offsets at once, vectorizing the order-raising recurrence
// across atoms. vals/derivs use an SoA [order][nw] layout:
// vals[j * nw + a] = M_order(w[a] + j). Each lane runs the identical
// floating-point sequence as bspline_weights, so results are bit-identical
// to the scalar call per atom.
void bspline_weights_batch(int order, const double* w, std::size_t nw,
                           double* vals, double* derivs);

// |b(m)|^2 Euler-spline moduli for one dimension of length n and the given
// interpolation order, including the standard fix-up for even orders where
// the denominator vanishes (m = n/2).
std::vector<double> bspline_moduli(std::size_t n, int order);

}  // namespace repro::pme

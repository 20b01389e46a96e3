// Brute-force Ewald summation: the slow, assumption-free oracle that holds
// PME (energies and forces) to the exact k-space sum on small systems,
// kept in the tests beside the pair kernel's oracle (pair_oracle.hpp).
//
// The direct sum runs over minimum-image pairs with libm erfc; the
// reciprocal sum walks every wavevector with |m| <= kmax per dimension and
// forms the structure factor atom by atom. No mesh, no splines.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "md/box.hpp"
#include "md/topology.hpp"
#include "pme/pme.hpp"
#include "util/units.hpp"
#include "util/vec3.hpp"

namespace repro::oracle {

struct EwaldRefOptions {
  double beta = 0.5;  // splitting parameter (1/Å)
  int kmax = 12;      // reciprocal images per dimension
};

struct EwaldRefResult {
  double direct = 0.0;      // erfc sum over minimum-image pairs
  double reciprocal = 0.0;  // structure-factor k-sum
  double self = 0.0;
  double total() const { return direct + reciprocal + self; }
};

// Full electrostatic Ewald energy of the point charges in `topo` (no
// exclusions applied). Optionally accumulates the reciprocal+self forces
// into recip_forces and the direct-space forces into direct_forces.
inline EwaldRefResult ewald_reference(
    const md::Topology& topo, const md::Box& box,
    const std::vector<util::Vec3>& pos, const EwaldRefOptions& opts,
    std::vector<util::Vec3>* direct_forces = nullptr,
    std::vector<util::Vec3>* recip_forces = nullptr) {
  using util::Vec3;
  const int n = topo.natoms();
  const double beta = opts.beta;
  const double sqrt_pi = std::sqrt(std::numbers::pi);
  EwaldRefResult res;

  // Direct sum, minimum image (beta must be large enough that erfc decays
  // within half the box).
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double qq = units::kCoulomb * topo.atom(i).charge *
                        topo.atom(j).charge;
      if (qq == 0.0) continue;
      const Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                   pos[static_cast<std::size_t>(j)]);
      const double r = util::norm(d);
      const double br = beta * r;
      res.direct += qq * std::erfc(br) / r;
      if (direct_forces != nullptr) {
        const double dEdr = -qq * (std::erfc(br) / (r * r) +
                                   2.0 * beta / sqrt_pi *
                                       std::exp(-br * br) / r);
        const Vec3 f = d * (-dEdr / r);
        (*direct_forces)[static_cast<std::size_t>(i)] += f;
        (*direct_forces)[static_cast<std::size_t>(j)] -= f;
      }
    }
  }

  // Reciprocal sum over k = 2 pi (mx/Lx, my/Ly, mz/Lz).
  const double vol = box.volume();
  const double two_pi = 2.0 * std::numbers::pi;
  for (int mx = -opts.kmax; mx <= opts.kmax; ++mx) {
    for (int my = -opts.kmax; my <= opts.kmax; ++my) {
      for (int mz = -opts.kmax; mz <= opts.kmax; ++mz) {
        if (mx == 0 && my == 0 && mz == 0) continue;
        const Vec3 k{two_pi * mx / box.lx(), two_pi * my / box.ly(),
                     two_pi * mz / box.lz()};
        const double k2 = util::norm2(k);
        const double ak = std::exp(-k2 / (4.0 * beta * beta)) / k2;
        double sr = 0.0;
        double si = 0.0;
        for (int i = 0; i < n; ++i) {
          const double phase = util::dot(k, pos[static_cast<std::size_t>(i)]);
          sr += topo.atom(i).charge * std::cos(phase);
          si += topo.atom(i).charge * std::sin(phase);
        }
        const double s2 = sr * sr + si * si;
        const double pref = units::kCoulomb * two_pi / vol;
        res.reciprocal += pref * ak * s2;
        if (recip_forces != nullptr) {
          for (int i = 0; i < n; ++i) {
            const double qi = topo.atom(i).charge;
            const double phase =
                util::dot(k, pos[static_cast<std::size_t>(i)]);
            // F_i = -dE/dr_i; E term = pref*ak*|S|^2 with
            // S = sum q e^{i k.r}; dE/dr_i = 2 pref ak q_i
            //   (-sin(kr) sr + cos(kr) si) k.
            const double g =
                2.0 * pref * ak * qi *
                (-std::sin(phase) * sr + std::cos(phase) * si);
            (*recip_forces)[static_cast<std::size_t>(i)] -= k * g;
          }
        }
      }
    }
  }

  res.self = pme::ewald_self_energy(topo, beta);
  return res;
}

}  // namespace repro::oracle

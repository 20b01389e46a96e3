#include "md/bonded.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace repro::md {

namespace {

using util::Vec3;

// Wraps an angle difference into (-pi, pi].
double wrap_angle(double a) {
  while (a > std::numbers::pi) a -= 2.0 * std::numbers::pi;
  while (a <= -std::numbers::pi) a += 2.0 * std::numbers::pi;
  return a;
}

// Harmonic two-body term (bonds and Urey-Bradley): adds energy and forces,
// returns the energy.
double harmonic_pair(const Box& box, const std::vector<Vec3>& pos,
                     std::vector<Vec3>& forces, int i, int j, double kf,
                     double r0) {
  const Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                               pos[static_cast<std::size_t>(j)]);
  const double r = util::norm(d);
  const double dr = r - r0;
  const double e = kf * dr * dr;
  // F_i = -dE/dr * d/r
  const Vec3 f = d * (-2.0 * kf * dr / r);
  forces[static_cast<std::size_t>(i)] += f;
  forces[static_cast<std::size_t>(j)] -= f;
  return e;
}

// Torsion angle and its gradient (Blondel & Karplus formulation). Used by
// both proper dihedrals and CHARMM-style impropers.
struct TorsionGeometry {
  double phi;
  Vec3 dphi_dri, dphi_drj, dphi_drk, dphi_drl;
};

TorsionGeometry torsion(const Box& box, const std::vector<Vec3>& pos, int i,
                        int j, int k, int l) {
  const Vec3 b1 = box.min_image(pos[static_cast<std::size_t>(j)] -
                                pos[static_cast<std::size_t>(i)]);
  const Vec3 b2 = box.min_image(pos[static_cast<std::size_t>(k)] -
                                pos[static_cast<std::size_t>(j)]);
  const Vec3 b3 = box.min_image(pos[static_cast<std::size_t>(l)] -
                                pos[static_cast<std::size_t>(k)]);
  const Vec3 m = util::cross(b1, b2);
  const Vec3 n = util::cross(b2, b3);
  const double b2len = util::norm(b2);
  const double msq = util::norm2(m);
  const double nsq = util::norm2(n);

  TorsionGeometry g;
  g.phi = std::atan2(util::dot(util::cross(m, n), b2) / b2len,
                     util::dot(m, n));
  g.dphi_dri = m * (-b2len / msq);
  g.dphi_drl = n * (b2len / nsq);
  const double t1 = util::dot(b1, b2) / (b2len * b2len);
  const double t2 = util::dot(b3, b2) / (b2len * b2len);
  g.dphi_drj = g.dphi_dri * (-(1.0 + t1)) + g.dphi_drl * t2;
  g.dphi_drk = g.dphi_dri * t1 - g.dphi_drl * (1.0 + t2);
  return g;
}

void apply_torsion_force(std::vector<Vec3>& forces,
                         const TorsionGeometry& g, int i, int j, int k,
                         int l, double dEdphi) {
  forces[static_cast<std::size_t>(i)] -= g.dphi_dri * dEdphi;
  forces[static_cast<std::size_t>(j)] -= g.dphi_drj * dEdphi;
  forces[static_cast<std::size_t>(k)] -= g.dphi_drk * dEdphi;
  forces[static_cast<std::size_t>(l)] -= g.dphi_drl * dEdphi;
}

}  // namespace

BondedWork bonded_energy(const Topology& topo, const Box& box,
                         const std::vector<Vec3>& pos,
                         std::vector<Vec3>& forces, EnergyTerms& energy,
                         const WorkSlice& slice) {
  slice.require_atoms(pos.size());
  BondedWork work;

  for_each_term(topo.bonds(), slice, [&](const Bond& b) {
    energy.bond += harmonic_pair(box, pos, forces, b.i, b.j, b.kb, b.b0);
    ++work.bonds;
  });

  for_each_term(topo.angles(), slice, [&](const Angle& a) {
    const Vec3 rij = box.min_image(pos[static_cast<std::size_t>(a.i)] -
                                   pos[static_cast<std::size_t>(a.j)]);
    const Vec3 rkj = box.min_image(pos[static_cast<std::size_t>(a.k)] -
                                   pos[static_cast<std::size_t>(a.j)]);
    const double ri_len = util::norm(rij);
    const double rk_len = util::norm(rkj);
    double c = util::dot(rij, rkj) / (ri_len * rk_len);
    c = std::clamp(c, -1.0, 1.0);
    const double s = std::sqrt(std::max(1.0 - c * c, 1e-12));
    const double theta = std::acos(c);
    const double dt = theta - a.theta0;
    energy.angle += a.ktheta * dt * dt;
    const double dEdtheta = 2.0 * a.ktheta * dt;
    const Vec3 ui = rij * (1.0 / ri_len);
    const Vec3 uk = rkj * (1.0 / rk_len);
    const Vec3 fi = (uk - ui * c) * (dEdtheta / (s * ri_len));
    const Vec3 fk = (ui - uk * c) * (dEdtheta / (s * rk_len));
    forces[static_cast<std::size_t>(a.i)] += fi;
    forces[static_cast<std::size_t>(a.k)] += fk;
    forces[static_cast<std::size_t>(a.j)] -= fi + fk;
    if (a.kub > 0.0) {
      energy.angle +=
          harmonic_pair(box, pos, forces, a.i, a.k, a.kub, a.s0);
    }
    ++work.angles;
  });

  for_each_term(topo.dihedrals(), slice, [&](const Dihedral& d) {
    const TorsionGeometry g = torsion(box, pos, d.i, d.j, d.k, d.l);
    const double arg = d.n * g.phi - d.delta;
    energy.dihedral += d.kchi * (1.0 + std::cos(arg));
    const double dEdphi = -d.kchi * d.n * std::sin(arg);
    apply_torsion_force(forces, g, d.i, d.j, d.k, d.l, dEdphi);
    ++work.dihedrals;
  });

  for_each_term(topo.impropers(), slice, [&](const Improper& im) {
    const TorsionGeometry g = torsion(box, pos, im.i, im.j, im.k, im.l);
    const double dpsi = wrap_angle(g.phi - im.psi0);
    energy.improper += im.kpsi * dpsi * dpsi;
    const double dEdphi = 2.0 * im.kpsi * dpsi;
    apply_torsion_force(forces, g, im.i, im.j, im.k, im.l, dEdphi);
    ++work.impropers;
  });

  return work;
}

}  // namespace repro::md

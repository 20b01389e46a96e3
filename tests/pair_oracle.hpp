// The libm pair physics: the accuracy oracle for the production pair
// kernel (md/nonbonded.cpp), kept in the tests the way md_test's
// MatchesBruteForce keeps a brute-force neighbor search.
//
// Every pair is evaluated on its own, in straight-line code: CHARMM's
// combining rules applied per pair from the topology, the LJ/VSWITCH term,
// and SHIFT or Ewald-direct electrostatics with libm erfc/exp. The
// production kernel stages pairs into vector lanes, reads a mixing table
// and interpolates erfc/exp from Hermite tables; the tests hold it to this
// oracle within 1e-10 relative, and its work counters to exact equality.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "md/box.hpp"
#include "md/energy.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "md/topology.hpp"
#include "md/work_slice.hpp"
#include "util/units.hpp"
#include "util/vec3.hpp"

namespace repro::oracle {

// One pair: the LJ and electrostatic energies and the total dE/dr. eps and
// rmin are the mixed LJ parameters (sqrt(eps_i eps_j), rmin_half_i +
// rmin_half_j) and qq the Coulomb prefactor kCoulomb qi qj.
struct PairResult {
  double lj = 0.0;
  double elec = 0.0;
  double dEdr = 0.0;
};

inline PairResult pair_interaction(double eps, double rmin, double qq,
                                   double r, const md::NonbondedOptions& opts) {
  PairResult out;
  const double rc = opts.cutoff;
  const double ron = opts.switch_on;

  // Lennard-Jones (CHARMM combining rules) with energy switching.
  if (eps > 0.0) {
    const double q = rmin / r;
    const double q2 = q * q;
    const double q6 = q2 * q2 * q2;
    const double q12 = q6 * q6;
    const double elj = eps * (q12 - 2.0 * q6);
    const double dlj = -12.0 * eps * (q12 - q6) / r;
    if (r <= ron) {
      out.lj = elj;
      out.dEdr = dlj;
    } else {
      const double A = rc * rc;
      const double B = ron * ron;
      const double D = (A - B) * (A - B) * (A - B);
      const double u = r * r;
      const double sw = (A - u) * (A - u) * (A + 2.0 * u - 3.0 * B) / D;
      const double dsw = 12.0 * r * (A - u) * (B - u) / D;
      out.lj = elj * sw;
      out.dEdr = dlj * sw + elj * dsw;
    }
  }

  // Electrostatics.
  if (qq != 0.0) {
    if (opts.elec == md::NonbondedOptions::Elec::kShift) {
      const double x = 1.0 - (r * r) / (rc * rc);
      out.elec = qq / r * x * x;
      out.dEdr += -qq / (r * r) * x * (1.0 + 3.0 * (r * r) / (rc * rc));
    } else {
      const double br = opts.beta * r;
      const double erfc_br = std::erfc(br);
      out.elec = qq * erfc_br / r;
      out.dEdr += -qq * (erfc_br / (r * r) +
                         2.0 * opts.beta / std::sqrt(std::numbers::pi) *
                             std::exp(-br * br) / r);
    }
  }
  return out;
}

// Counts (i, j) as listed and, inside the cutoff, adds its energies to
// `work` and its force to both atoms.
inline void accumulate_pair(const md::Topology& topo, const md::Box& box,
                            const std::vector<util::Vec3>& pos,
                            const md::NonbondedOptions& opts, int i, int j,
                            std::vector<util::Vec3>& forces,
                            md::NonbondedWork& work) {
  const std::size_t si = static_cast<std::size_t>(i);
  const std::size_t sj = static_cast<std::size_t>(j);
  ++work.pairs_listed;
  const util::Vec3 d = box.min_image(pos[si] - pos[sj]);
  const double r2 = util::norm2(d);
  if (r2 >= opts.cutoff * opts.cutoff) return;
  const double r = std::sqrt(r2);
  const md::AtomParams& ai = topo.atom(i);
  const md::AtomParams& aj = topo.atom(j);
  const PairResult pr = pair_interaction(
      std::sqrt(ai.eps * aj.eps), ai.rmin_half + aj.rmin_half,
      units::kCoulomb * ai.charge * aj.charge, r, opts);
  work.lj += pr.lj;
  work.elec += pr.elec;
  ++work.pairs_in_cutoff;
  const util::Vec3 f = d * (-pr.dEdr / r);
  forces[si] += f;
  forces[sj] -= f;
}

// Whether listed pair (i, j) belongs to `slice`, written from the rule's
// definition in md/work_slice.hpp rather than from the kernel's driver.
inline bool in_slice(const md::WorkSlice& slice, int i, int j) {
  const std::size_t si = static_cast<std::size_t>(i);
  switch (slice.rule()) {
    case md::WorkSlice::Rule::kInterleaved:
      return i % slice.stride() == slice.shard();
    case md::WorkSlice::Rule::kOwnedAtoms:
      return slice.mask()[si] != 0;
    case md::WorkSlice::Rule::kPairBlocks:
      return (slice.block()[si] +
              slice.block()[static_cast<std::size_t>(j)]) %
                 slice.stride() ==
             slice.shard();
  }
  return false;
}

// The pairs of `nbl` in `slice`, one at a time.
inline md::NonbondedWork nonbonded_energy_listed(
    const md::Topology& topo, const md::Box& box,
    const std::vector<util::Vec3>& pos, const md::NeighborList& nbl,
    const md::NonbondedOptions& opts, std::vector<util::Vec3>& forces,
    md::EnergyTerms& energy, const md::WorkSlice& slice = {}) {
  md::NonbondedWork work;
  for (int i = 0; i < topo.natoms(); ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    for (std::size_t t = nbl.offsets()[si]; t < nbl.offsets()[si + 1]; ++t) {
      const int j = nbl.neighbors()[t];
      if (in_slice(slice, i, j)) {
        accumulate_pair(topo, box, pos, opts, i, j, forces, work);
      }
    }
  }
  energy.lj += work.lj;
  energy.elec += work.elec;
  return work;
}

// Every non-excluded pair, without a list: O(N^2), for small systems.
inline md::NonbondedWork nonbonded_energy_reference(
    const md::Topology& topo, const md::Box& box,
    const std::vector<util::Vec3>& pos, const md::NonbondedOptions& opts,
    std::vector<util::Vec3>& forces, md::EnergyTerms& energy) {
  md::NonbondedWork work;
  for (int i = 0; i < topo.natoms(); ++i) {
    for (int j = i + 1; j < topo.natoms(); ++j) {
      if (!topo.excluded(i, j)) {
        accumulate_pair(topo, box, pos, opts, i, j, forces, work);
      }
    }
  }
  energy.lj += work.lj;
  energy.elec += work.elec;
  return work;
}

}  // namespace repro::oracle

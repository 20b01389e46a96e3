// Compute-cost model: converts kernel work counts into simulated CPU time.
//
// The *results* of every kernel are computed for real; only the virtual
// time charged per unit of work is modeled. Constants are calibrated so a
// 1-processor 10-step energy calculation of the 3552-atom system takes
// ~6.5 s with the PME part ~45% of it — the scale of the paper's Figure 3
// on a 1 GHz Pentium III (see DESIGN.md §6 and EXPERIMENTS.md).
#pragma once

#include <cstddef>

namespace repro::charmm {

struct CostModel {
  // Non-bonded pair interaction (LJ + electrostatics, incl. erfc when the
  // Ewald direct sum is active).
  double seconds_per_pair = 0.0;
  // One bonded term (bond/angle/dihedral/improper average).
  double seconds_per_bonded_term = 0.0;
  // Generic floating-point work (FFT butterflies, spreading stencils,
  // mesh convolution) — the PME hook passes flops directly.
  double seconds_per_flop = 0.0;
  // Neighbor-list construction, per pair examined.
  double seconds_per_list_pair = 0.0;
  // Integration, per atom per step.
  double seconds_per_integration_atom = 0.0;

  // A 1 GHz Pentium III running compiled Fortran kernels: ~120 Mflop/s
  // sustained on this kind of code.
  static CostModel pentium3_1ghz();

  bool operator==(const CostModel&) const = default;
};

}  // namespace repro::charmm

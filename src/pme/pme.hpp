// Smooth particle-mesh Ewald (Essmann et al., J. Chem. Phys. 103:8577).
//
// The total electrostatic energy under PME is
//   E = E_direct (erfc, in the short-range non-bonded loop)
//     + E_reciprocal (charge mesh + 3-D FFT convolution, here)
//     + E_self + E_exclusion-correction (analytic, here).
// The exclusion correction is a classic-routine term like the md kernels
// and takes the same WorkSlice, so every decomposition runs one copy.
//
// Three implementations share one B-spline stencil (SplineStencil: charge
// spreading and force interpolation over a GridRegion) and the influence
// machinery; they differ in the region they spread into and the FFT:
//  - SerialPme: full grid + sequential real-to-complex 3-D FFT; it
//    convolves the half spectrum (reference, examples, system relax).
//  - ParallelPme: real x-slab decomposition on top of ParallelFft3D, the
//    slab real-to-complex transform; each rank convolves its planes of
//    the half spectrum. The only communication is the two all-to-all
//    personalized transposes inside the forward/backward FFTs, matching
//    the structure in the paper's Figure 2. Per-rank partial
//    energies/forces are combined by the caller's global reduction (the
//    classic part's collective).
//  - PencilPme: the charge grid distributed over a 2-D pencil grid (below).
// The Ewald influence function depends only on (params, box), so each
// plan tabulates it once for the k-space points it convolves (the half
// spectrum, its half-spectrum z-slab, or its stage-3 pencils). The slab
// transform ships the complex transform's block sizes; the pencil PME
// keeps complex grids, because its payload bytes are the simulated
// message bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "md/box.hpp"
#include "md/topology.hpp"
#include "md/work_slice.hpp"
#include "pme/bspline.hpp"
#include "util/vec3.hpp"

namespace repro::pme {

struct PmeParams {
  std::size_t nx = 32, ny = 32, nz = 32;
  int order = 4;       // B-spline interpolation order
  double beta = 0.34;  // Ewald splitting parameter (1/Å)

  bool operator==(const PmeParams&) const = default;
};

// E_self = -kCoulomb * beta/sqrt(pi) * sum q_i^2.
double ewald_self_energy(const md::Topology& topo, double beta);

// Correction for excluded pairs (whose full interaction is contained in the
// mesh term): subtracts kCoulomb q_i q_j erf(beta r)/r with forces, for the
// excluded pairs in `slice` (md/work_slice.hpp): an interleaved share of
// the pair list, or the pairs whose first atom a spatial rank owns
// (excluded pairs are bonded-graph local, so the partner is always
// resident as owned or ghost). Returns the energy contribution.
double ewald_exclusion_correction(const md::Topology& topo,
                                  const md::Box& box,
                                  const std::vector<util::Vec3>& pos,
                                  double beta,
                                  std::vector<util::Vec3>& forces,
                                  const md::WorkSlice& slice = {});

// A wrapped box of grid planes: the axis-aligned region of the charge
// grid a PME spreads into, stored as a [cx][cy][cz] buffer — the whole
// grid (SerialPme), an x-slab (ParallelPme) or the planes one spatial
// rank's atoms can touch (PencilPme). Each dimension is an interval
// [start, start+count) taken modulo n (count == n means the whole
// dimension). Empty when any count is zero (a rank that owns no cells).
struct GridRegion {
  std::size_t x0 = 0, cx = 0;
  std::size_t y0 = 0, cy = 0;
  std::size_t z0 = 0, cz = 0;

  bool empty() const { return cx == 0 || cy == 0 || cz == 0; }
  bool operator==(const GridRegion&) const = default;
};

// The charge-spreading / force-interpolation kernel of all three PMEs.
// load() takes a list of atoms and computes, for each charged one, its
// grid lines k0 = floor(u) and its B-spline weights and derivatives in
// the three dimensions (bspline_weights_batch into SoA scratch that is
// reused from call to call). spread() and interpolate() then walk the
// order^3 taps on lines (k0 - j) mod n, j = 0 .. order-1, over a region's
// buffer, skipping the taps outside the region (the slab's x clipping);
// each returns the number of taps it applied. Per tap the charge is
// ((q wx) wy) wz and the force sums run in jx, jy, jz order, so every
// decomposition gives the bits of one plain stencil loop. A stencil whose
// z taps are all in the region and do not wrap there spreads through a
// contiguous, descending omp simd run.
class SplineStencil {
 public:
  SplineStencil(const PmeParams& params, const md::Box& box);

  // Loads the charged atoms of `atoms` (indices into pos), in list order.
  // A coordinate whose fractional grid coordinate is not in [0, n) — NaN
  // or infinite — is a util::Error naming the atom.
  void load(const md::Topology& topo, const std::vector<util::Vec3>& pos,
            const std::vector<int>& atoms);

  // The number of loaded (charged) atoms.
  std::size_t size() const { return q_.size(); }

  // Accumulates q * wx * wy * wz into `grid`, the region's buffer.
  std::size_t spread(const GridRegion& region, double* grid) const;

  // Subtracts q * grad(phi) from forces[atom], phi being the potential in
  // the region's buffer `grid`.
  std::size_t interpolate(const GridRegion& region, const double* grid,
                          std::vector<util::Vec3>& forces) const;

 private:
  struct Taps;
  Taps taps(std::size_t a, const GridRegion& region) const;
  // Spline weight / derivative of row j for loaded atom a in dimension d.
  double w(int d, int j, std::size_t a) const {
    return w_[d][static_cast<std::size_t>(j) * size() + a];
  }
  double dw(int d, int j, std::size_t a) const {
    return dw_[d][static_cast<std::size_t>(j) * size() + a];
  }

  int order_;
  std::size_t dims_[3];
  double lens_[3];
  std::vector<int> atom_;
  std::vector<double> q_;
  std::vector<int> k0_[3];
  std::vector<double> frac_;          // one dimension's offsets u - k0
  std::vector<double> w_[3], dw_[3];  // SoA [order][size()]
};

class SerialPme {
 public:
  // `kind` is ignored: there is one spread/interpolate path (the shared
  // SplineStencil over a real staging grid) and one FFT kernel. It stays
  // only for the perfbench driver (util/kernel.hpp). The staging grid goes
  // through fft::RealFft3D, and the convolution and energy run on its
  // half spectrum [nx][ny][nz/2+1], the influence function (a constant of
  // (params, box), tabulated here once per plan) being even in m.
  SerialPme(const PmeParams& params, const md::Box& box,
            util::KernelKind kind = util::default_kernel_kind());

  // Computes the reciprocal-space energy and accumulates forces on all
  // atoms. Positions may lie outside the box (wrapped internally).
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    std::vector<util::Vec3>& forces);

  const PmeParams& params() const { return params_; }

 private:
  PmeParams params_;
  md::Box box_;
  fft::RealFft3D fft_;
  std::vector<double> modx_, mody_, modz_;
  std::vector<double> influence_;  // per half-spectrum point
  std::vector<fft::Complex> spectrum_;  // [nx][ny][nz/2+1]
  SplineStencil stencil_;
  std::vector<int> atoms_;     // 0 .. natoms-1
  std::vector<double> rgrid_;  // real staging grid, the whole-grid region
};

// --- Pencil-decomposed PME --------------------------------------------------

// Consecutive region-local indices [local, local + len) whose wrapped
// planes are plane, plane + 1, ..., plane + len - 1.
struct WrappedRun {
  std::size_t local = 0;
  std::size_t plane = 0;
  std::size_t len = 0;
};

// At most two runs, ascending and disjoint in the local index.
struct WrappedRuns {
  std::array<WrappedRun, 2> runs{};
  std::size_t size = 0;

  const WrappedRun* begin() const { return runs.data(); }
  const WrappedRun* end() const { return runs.data() + size; }
  std::size_t total() const {
    std::size_t t = 0;
    for (const WrappedRun& r : *this) t += r.len;
    return t;
  }
};

// The k in [0, count) whose wrapped plane (start + k) mod n falls in
// [b, e) (b <= e <= n), as the run before the wrap at k = n - start and
// the run after it, empty runs dropped. Requires start < n and
// count <= n (util::Error otherwise). The pencil plane exchange walks
// these runs and nothing else.
WrappedRuns wrapped_runs(std::size_t start, std::size_t count, std::size_t n,
                         std::size_t b, std::size_t e);

// The summed length of wrapped_runs(start, count, n, b, e): the
// block-size primitive shared by the pencil plane exchange's walk, its
// message sizes and the predictor that pins them.
std::size_t wrapped_overlap(std::size_t start, std::size_t count,
                            std::size_t n, std::size_t b, std::size_t e);

// Pencil-parallel PME: the charge grid is distributed over a Py x Pz
// pencil process grid (fft::PencilGrid) and the spatial decomposition
// feeds it locally instead of replicating positions:
//
//   spread (owned atoms -> my region planes)
//   == charge plane exchange: region blocks -> stage-1 pencil owners ==
//   pencil forward FFT (X -> Y -> Z with grouped pairwise transposes)
//   convolution + partial energy over my stage-3 pencils
//   pencil backward FFT
//   == potential plane exchange: stage-1 owners -> region blocks ==
//   interpolate forces for owned atoms (whole stencil is in-region)
//
// Regions change only when a load balancer adopts a new cell -> rank map
// (set_regions), so between rebalances the message schedule is a fixed
// function of the layout and the predictor can pin it exactly. Runs over the raw Comm with a
// caller-owned tag base, like the decomposition's other schedules.
class PencilPme {
 public:
  // `regions[r]` is rank r's spread/interpolation region (empty for
  // cell-less ranks); every rank passes the same vector. A non-empty
  // region must lie on the grid: start < n and count <= n in every
  // dimension (util::Error naming the rank otherwise). `py * pz` ranks
  // participate in the FFT; the rest only ship their region blocks.
  // The influence factors of this rank's stage-3 pencils are tabulated at
  // construction.
  PencilPme(const PmeParams& params, const md::Box& box, mpi::Comm& comm,
            int py, int pz, std::vector<GridRegion> regions,
            std::function<void(double flops)> charge_compute = {});

  // Reciprocal sum for the owned atoms. Returns this rank's partial
  // energy (each wavevector is counted on exactly one stage-3 owner);
  // forces on owned atoms are complete — no reciprocal-force reduction
  // is needed. Uses tags tag_base + 0..5: charge plane exchange, X->Y
  // and Y->Z forward transposes, Z->Y and Y->X backward transposes,
  // potential plane exchange.
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    const std::vector<int>& owned,
                    std::vector<util::Vec3>& forces, int tag_base);

  // Adopts new regions (same rules and errors as the constructor's). The
  // FFT plans and influence factors depend only on (params, box, pencil
  // grid), so they are kept.
  void set_regions(std::vector<GridRegion> regions);

  const PmeParams& params() const { return params_; }
  const fft::PencilGrid& grid() const { return pfft_.grid(); }
  const GridRegion& my_region() const {
    return regions_[static_cast<std::size_t>(comm_.rank())];
  }

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }
  // Region blocks <-> stage-1 pencil slabs. `gather` accumulates charges
  // into stage-1 (+=); `scatter` returns potentials into the region (=).
  void exchange_charges(int tag);
  void return_potential(int tag);

  PmeParams params_;
  md::Box box_;
  mpi::Comm& comm_;
  std::function<void(double)> charge_;
  fft::PencilFft3D pfft_;
  std::vector<GridRegion> regions_;
  SplineStencil stencil_;
  std::vector<double> modx_, mody_, modz_;
  std::vector<double> influence_;      // per stage-3 point, stage3_ order
  std::vector<double> region_;         // [cx][cy][cz] charges / potentials
  std::vector<fft::Complex> stage1_;   // [ly1][lz1][nx]
  std::vector<fft::Complex> stage3_;   // [lx2][ly3][nz]
  std::vector<double> msgbuf_;         // plane-exchange pack/unpack scratch
};

class ParallelPme {
 public:
  // `charge_compute` converts flops to simulated time (may be empty).
  // The influence factors of this rank's half-spectrum planes are
  // tabulated at construction.
  ParallelPme(const PmeParams& params, const md::Box& box,
              middleware::Transport& transport,
              std::function<void(double flops)> charge_compute = {});

  // Slab-parallel reciprocal sum. Returns this rank's *partial* energy;
  // forces accumulated are partial too — both become total after the
  // caller's global sum. Spreading, the FFTs, the convolution and
  // interpolation are charged through the hook.
  double reciprocal(const md::Topology& topo,
                    const std::vector<util::Vec3>& pos,
                    std::vector<util::Vec3>& forces);

  const PmeParams& params() const { return params_; }

 private:
  PmeParams params_;
  md::Box box_;
  middleware::Transport& transport_;
  std::function<void(double)> charge_;
  fft::ParallelFft3D pfft_;
  GridRegion slab_;  // my x-planes, all y and z
  SplineStencil stencil_;
  std::vector<int> atoms_;  // charged atoms whose x-stencil meets my slab
  std::vector<double> modx_, mody_, modz_;
  std::vector<double> influence_;  // per z-slab point, zslab_ order
  std::vector<double> xslab_;        // the slab region's buffer
  std::vector<fft::Complex> zslab_;  // my half-spectrum planes
};

}  // namespace repro::pme

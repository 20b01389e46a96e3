#include "md/nonbonded.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <type_traits>
#include <utility>

#include "util/units.hpp"

namespace repro::md {

namespace {

using util::Vec3;

// Resolves the mixing table: use the caller-provided one, or build a
// throwaway (cheap next to the pair loop, but per-step callers should set
// NonbondedOptions::table once at setup).
const PairTable* resolve_table(const NonbondedOptions& opts,
                               const Topology& topo,
                               std::shared_ptr<const PairTable>& hold) {
  if (opts.table) {
    REPRO_REQUIRE(opts.table->type_of.size() ==
                      static_cast<std::size_t>(topo.natoms()),
                  "pair table built for a different topology");
    return opts.table.get();
  }
  hold = build_pair_table(topo);
  return hold.get();
}

// ---------------------------------------------------------------------------
// The pair kernel.
//
// Structure per i-row, for each block of up to kChunk listed j:
//  1. under a pair-block slice, a branch-free scalar pass compacts the
//     partners the slice keeps (other slices keep every listed pair);
//  2. a #pragma omp simd prepass applies the minimum-image convention and
//     computes r^2 for every kept pair of the block;
//  3. a branch-free scalar compaction appends the pairs the cutoff admits
//     to SoA lanes (partner, displacement, r^2) by writing every pair at
//     the fill index and advancing it by the cutoff test;
// and once kChunk lanes have filled, a branch-free #pragma omp simd pass
// gathers each lane's mixed LJ parameters and partner charge and
// evaluates the physics, and a short scalar pass scatters forces and sums
// energies in fixed lane order (so the result is deterministic across
// reruns and vector widths by construction).
//
// The three simd loops vectorize only because src/md/CMakeLists.txt
// compiles this file with -fno-math-errno (sqrt needs no errno branch)
// and -fno-trapping-math (GCC may if-convert the VSWITCH and table-bound
// selects). Neither flag changes an IEEE result, and there is no FP
// contraction on the default target, so the vector lanes compute the
// scalar code's bits; cmake/vectorize_guard.cmake fails the build's tests
// if a loop marked "repro: must vectorize" stops vectorizing.
//
// erfc(beta r) and exp(-(beta r)^2) — the libm calls that would dominate
// the Ewald-direct term — are replaced by cubic Hermite interpolation on
// 1/512-spaced tables over [0, 8] (absolute error ~1e-13, well inside the
// 1e-10 bound the libm oracle in tests/pair_oracle.hpp holds it to).

constexpr int kChunk = 128;

constexpr double kTabMax = 8.0;
constexpr int kTabN = 4096;  // intervals; node spacing 1/512
constexpr double kTabH = kTabMax / kTabN;

struct ErfcTable {
  std::vector<double> erfc_v, erfc_d;    // erfc(x) and its derivative
  std::vector<double> gauss_v, gauss_d;  // exp(-x^2) and its derivative
};

const ErfcTable& erfc_table() {
  static const ErfcTable table = [] {
    ErfcTable t;
    const std::size_t n = kTabN + 1;
    t.erfc_v.resize(n);
    t.erfc_d.resize(n);
    t.gauss_v.resize(n);
    t.gauss_d.resize(n);
    const double c = 2.0 / std::sqrt(std::numbers::pi);
    for (std::size_t k = 0; k < n; ++k) {
      const double x = static_cast<double>(k) * kTabH;
      const double g = std::exp(-x * x);
      t.erfc_v[k] = std::erfc(x);
      t.erfc_d[k] = -c * g;
      t.gauss_v[k] = g;
      t.gauss_d[k] = -2.0 * x * g;
    }
    return t;
  }();
  return table;
}

// The compaction appends up to kChunk pairs after fewer than kChunk
// waiting ones, so the physics lanes hold up to 2 * kChunk - 1.
constexpr int kLanes = 2 * kChunk;

struct SimdScratch {
  // Prepass lanes, one per kept j of a block.
  int kj[kChunk];
  double px[kChunk], py[kChunk], pz[kChunk], pr2[kChunk];
  // Physics lanes, one per kept in-cutoff pair.
  int j[kLanes];
  double dx[kLanes], dy[kLanes], dz[kLanes], r2[kLanes];
  double fs[kLanes];  // force scale -dEdr / r
  double lj[kLanes], el[kLanes];
};

// One heap block per thread. A thread_local array of this size lives in
// the static TLS block glibc carves from the top of each thread's stack,
// where ASan can keep stale stack poison after a sweep thread exits and
// a new one reuses the mapping; heap memory carries no such shadow.
SimdScratch& simd_scratch() {
  thread_local const std::unique_ptr<SimdScratch> s =
      std::make_unique<SimdScratch>();
  return *s;
}

// The Keep of every slice rule but pair blocks: the row's listed pairs
// are all the slice's.
struct KeepAll {
  bool operator()(int) const { return true; }
};

// Per-call constants for the simd row kernel.
class SimdRowKernel {
 public:
  SimdRowKernel(const Box& box, const NonbondedOptions& opts,
                const PairTable& pt, const std::vector<Vec3>& pos,
                std::vector<Vec3>& forces)
      : box_(box),
        pt_(pt),
        pos_(pos),
        forces_(forces),
        s_(simd_scratch()),
        ewald_(opts.elec == NonbondedOptions::Elec::kEwaldDirect),
        rc2_(opts.cutoff * opts.cutoff),
        inv_rc2_(1.0 / (opts.cutoff * opts.cutoff)),
        ron_(opts.switch_on),
        A_(opts.cutoff * opts.cutoff),
        B_(opts.switch_on * opts.switch_on),
        beta_(opts.beta),
        bspi_(2.0 * opts.beta / std::sqrt(std::numbers::pi)) {
    const double d = (A_ - B_) * (A_ - B_) * (A_ - B_);
    inv_d_ = d != 0.0 ? 1.0 / d : 0.0;
  }

  // Evaluates atom i against the Keep-filtered neighbors, accumulating
  // forces on both sides and energies/counters into work.
  template <class Keep>
  void row(int i, const int* neigh, std::size_t count,
           [[maybe_unused]] Keep keep, NonbondedWork& work) {
    SimdScratch& s = s_;
    const std::size_t si = static_cast<std::size_t>(i);
    const Vec3 xi = pos_[si];
    const std::size_t row_base = static_cast<std::size_t>(pt_.type_of[si]) *
                                 static_cast<std::size_t>(pt_.ntypes);
    const RowI ri{units::kCoulomb * pt_.charge[si], pt_.eps.data() + row_base,
                  pt_.rmin.data() + row_base};
    const Vec3* pos = pos_.data();
    const double lx = box_.lx(), ly = box_.ly(), lz = box_.lz();
    const double rc2 = rc2_;
    Vec3 fi{};
    std::size_t listed = 0;
    int m = 0;
    for (std::size_t b = 0; b < count; b += kChunk) {
      const int* js = neigh + b;
      int n = static_cast<int>(std::min<std::size_t>(count - b, kChunk));
      if constexpr (!std::is_same_v<Keep, KeepAll>) {
        // Filtered before the prepass: a pair-block slice keeps about
        // 1/nowners of each row, so this spares the rest its min-image.
        int kept = 0;
        for (int k = 0; k < n; ++k) {
          s.kj[kept] = js[k];
          kept += keep(js[k]);
        }
        js = s.kj;
        n = kept;
      }
      listed += static_cast<std::size_t>(n);
      // Box::min_image and util::norm2 on pos[i] - pos[j], operation for
      // operation, so the cutoff test and the lanes match them bit for bit.
#pragma omp simd
      for (int k = 0; k < n; ++k) {  // repro: must vectorize
        const Vec3& xj = pos[static_cast<std::size_t>(js[k])];
        double dx = xi.x - xj.x;
        double dy = xi.y - xj.y;
        double dz = xi.z - xj.z;
        dx -= lx * round_half_even(dx / lx);
        dy -= ly * round_half_even(dy / ly);
        dz -= lz * round_half_even(dz / lz);
        s.px[k] = dx;
        s.py[k] = dy;
        s.pz[k] = dz;
        s.pr2[k] = dx * dx + dy * dy + dz * dz;
      }
      for (int k = 0; k < n; ++k) {
        s.j[m] = js[k];
        s.dx[m] = s.px[k];
        s.dy[m] = s.py[k];
        s.dz[m] = s.pz[k];
        s.r2[m] = s.pr2[k];
        m += !(s.pr2[k] >= rc2);
      }
      if (m >= kChunk) {
        flush(m, ri, fi, work);
        m = 0;
      }
    }
    flush(m, ri, fi, work);
    work.pairs_listed += listed;
    forces_[si] += fi;
  }

 private:
  // Row i's side of every pair: its charge times the Coulomb constant and
  // its rows of the LJ mixing table.
  struct RowI {
    double qqi;
    const double* eps;
    const double* rmin;
  };

  void flush(int m, const RowI& ri, Vec3& fi_out, NonbondedWork& work) {
    if (m == 0) return;
    if (ewald_) {
      physics_ewald(m, ri);
    } else {
      physics_shift(m, ri);
    }
    // Fixed-order scatter + energy sums keep the kernel deterministic.
    // The sums live in locals: as members they could alias forces, and
    // each store into forces would make the compiler reload them.
    const SimdScratch& s = s_;
    Vec3* forces = forces_.data();
    Vec3 fi = fi_out;
    double lj = work.lj, elec = work.elec;
    for (int k = 0; k < m; ++k) {
      const Vec3 f{s.dx[k] * s.fs[k], s.dy[k] * s.fs[k], s.dz[k] * s.fs[k]};
      fi += f;
      forces[static_cast<std::size_t>(s.j[k])] -= f;
      lj += s.lj[k];
      elec += s.el[k];
    }
    fi_out = fi;
    work.lj = lj;
    work.elec = elec;
    work.pairs_in_cutoff += static_cast<std::size_t>(m);
  }

  void physics_shift(int m, const RowI& ri) {
    SimdScratch& s = s_;
    const int* type_of = pt_.type_of.data();
    const double* charge = pt_.charge.data();
    const double *eps = ri.eps, *rmin = ri.rmin, qqi = ri.qqi;
    const double A = A_, B = B_, inv_d = inv_d_, ron = ron_;
    const double inv_rc2 = inv_rc2_;
#pragma omp simd
    for (int k = 0; k < m; ++k) {  // repro: must vectorize
      const double r2 = s.r2[k];
      const double r = std::sqrt(r2);
      const double inv_r = 1.0 / r;
      double lj, dE;
      const std::size_t j = static_cast<std::size_t>(s.j[k]);
      const int tj = type_of[j];
      lj_term(eps[tj], rmin[tj], r, r2, inv_r, A, B, inv_d, ron, lj, dE);
      const double qq = qqi * charge[j];
      const double x = 1.0 - r2 * inv_rc2;
      s.el[k] = qq * inv_r * x * x;
      dE += -qq * inv_r * inv_r * x * (1.0 + 3.0 * r2 * inv_rc2);
      s.lj[k] = lj;
      s.fs[k] = -dE * inv_r;
    }
  }

  void physics_ewald(int m, const RowI& ri) {
    SimdScratch& s = s_;
    const int* type_of = pt_.type_of.data();
    const double* charge = pt_.charge.data();
    const double *eps = ri.eps, *rmin = ri.rmin, qqi = ri.qqi;
    const ErfcTable& tab = erfc_table();
    const double* ev = tab.erfc_v.data();
    const double* ed = tab.erfc_d.data();
    const double* gv = tab.gauss_v.data();
    const double* gd = tab.gauss_d.data();
    const double A = A_, B = B_, inv_d = inv_d_, ron = ron_;
    const double beta = beta_, bspi = bspi_;
    const double inv_h = 1.0 / kTabH;
#pragma omp simd
    for (int k = 0; k < m; ++k) {  // repro: must vectorize
      const double r2 = s.r2[k];
      const double r = std::sqrt(r2);
      const double inv_r = 1.0 / r;
      double lj, dE;
      const std::size_t j = static_cast<std::size_t>(s.j[k]);
      const int tj = type_of[j];
      lj_term(eps[tj], rmin[tj], r, r2, inv_r, A, B, inv_d, ron, lj, dE);
      const double qq = qqi * charge[j];
      // Hermite-table erfc(beta r) and exp(-(beta r)^2).
      const double br = beta * r;
      const double xs = br * inv_h;
      int idx = static_cast<int>(xs);
      const bool over = idx >= kTabN;
      idx = over ? kTabN - 1 : idx;
      const double t = xs - static_cast<double>(idx);
      const double t2 = t * t;
      const double t3 = t2 * t;
      const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
      const double h10 = (t3 - 2.0 * t2 + t) * kTabH;
      const double h01 = 3.0 * t2 - 2.0 * t3;
      const double h11 = (t3 - t2) * kTabH;
      double efc = h00 * ev[idx] + h10 * ed[idx] + h01 * ev[idx + 1] +
                   h11 * ed[idx + 1];
      double gau = h00 * gv[idx] + h10 * gd[idx] + h01 * gv[idx + 1] +
                   h11 * gd[idx + 1];
      efc = over ? 0.0 : efc;
      gau = over ? 0.0 : gau;
      s.el[k] = qq * efc * inv_r;
      dE += -qq * (efc * inv_r * inv_r + bspi * gau * inv_r);
      s.lj[k] = lj;
      s.fs[k] = -dE * inv_r;
    }
  }

  // Branch-free LJ + VSWITCH term shared by both electrostatics loops.
  // eps == 0 lanes fall out naturally (rmin is 0 too, so every power of q
  // is 0); out-of-switch lanes select the switched value via blends.
  static inline void lj_term(double eps, double rmin, double r, double r2,
                             double inv_r, double A, double B, double inv_d,
                             double ron, double& lj, double& dE) {
    const double q = rmin * inv_r;
    const double q2 = q * q;
    const double q6 = q2 * q2 * q2;
    const double q12 = q6 * q6;
    const double elj = eps * (q12 - 2.0 * q6);
    const double dlj = -12.0 * eps * (q12 - q6) * inv_r;
    const double amu = A - r2;
    const double sw = amu * amu * (A + 2.0 * r2 - 3.0 * B) * inv_d;
    const double dsw = 12.0 * r * amu * (B - r2) * inv_d;
    const bool inner = r <= ron;
    const double swv = inner ? 1.0 : sw;
    const double dswv = inner ? 0.0 : dsw;
    lj = elj * swv;
    dE = dlj * swv + elj * dswv;
  }

  const Box& box_;
  const PairTable& pt_;
  const std::vector<Vec3>& pos_;
  std::vector<Vec3>& forces_;
  SimdScratch& s_;
  const bool ewald_;
  const double rc2_, inv_rc2_, ron_, A_, B_, beta_, bspi_;
  double inv_d_ = 0.0;
};

// The one pair-row driver: runs kernel.row over the rows and pairs of
// `nbl` in `slice`. The rule is resolved here, outside the pair loop:
// interleaved and owned-atom slices select whole rows and keep every
// listed pair, so their inner loop carries no per-pair test; pair-block
// slices walk every row and keep a pair by its two blocks' owner.
void run_rows(const NeighborList& nbl, int natoms, const WorkSlice& slice,
              SimdRowKernel& kernel, NonbondedWork& work) {
  const auto& offsets = nbl.offsets();
  const int* neigh = nbl.neighbors().data();
  auto row = [&](int i, auto keep) {
    const std::size_t b = offsets[static_cast<std::size_t>(i)];
    const std::size_t e = offsets[static_cast<std::size_t>(i) + 1];
    kernel.row(i, neigh + b, e - b, keep, work);
  };
  switch (slice.rule()) {
    case WorkSlice::Rule::kInterleaved:
      for (int i = slice.shard(); i < natoms; i += slice.stride()) {
        row(i, KeepAll{});
      }
      return;
    case WorkSlice::Rule::kOwnedAtoms:
      for (int i = 0; i < natoms; ++i) {
        if (slice.mask()[static_cast<std::size_t>(i)]) row(i, KeepAll{});
      }
      return;
    case WorkSlice::Rule::kPairBlocks: {
      const std::vector<int>& block = slice.block();
      const int owner = slice.shard();
      const int nowners = slice.stride();
      for (int i = 0; i < natoms; ++i) {
        const int bi = block[static_cast<std::size_t>(i)];
        row(i, [&](int j) {
          return (bi + block[static_cast<std::size_t>(j)]) % nowners == owner;
        });
      }
      return;
    }
  }
}

}  // namespace

std::shared_ptr<const PairTable> build_pair_table(const Topology& topo) {
  auto table = std::make_shared<PairTable>();
  const std::size_t natoms = static_cast<std::size_t>(topo.natoms());
  table->type_of.resize(natoms);
  table->charge.resize(natoms);
  std::map<std::pair<double, double>, int> ids;
  std::vector<std::pair<double, double>> params;  // (eps, rmin_half) per type
  for (std::size_t i = 0; i < natoms; ++i) {
    const AtomParams& a = topo.atom(static_cast<int>(i));
    table->charge[i] = a.charge;
    const std::pair<double, double> key{a.eps, a.rmin_half};
    auto [it, inserted] = ids.emplace(key, static_cast<int>(params.size()));
    if (inserted) params.push_back(key);
    table->type_of[i] = it->second;
  }
  table->ntypes = static_cast<int>(params.size());
  const std::size_t nt = params.size();
  table->eps.resize(nt * nt);
  table->rmin.resize(nt * nt);
  for (std::size_t a = 0; a < nt; ++a) {
    for (std::size_t b = 0; b < nt; ++b) {
      table->eps[a * nt + b] = std::sqrt(params[a].first * params[b].first);
      table->rmin[a * nt + b] = params[a].second + params[b].second;
    }
  }
  return table;
}

NonbondedWork nonbonded_energy(const Topology& topo, const Box& box,
                               const std::vector<Vec3>& pos,
                               const NeighborList& nbl,
                               const NonbondedOptions& opts,
                               std::vector<Vec3>& forces,
                               EnergyTerms& energy, const WorkSlice& slice) {
  REPRO_REQUIRE(nbl.cutoff() >= opts.cutoff,
                "neighbor list built with a smaller cutoff");
  slice.require_atoms(static_cast<std::size_t>(topo.natoms()));
  std::shared_ptr<const PairTable> hold;
  const PairTable& pt = *resolve_table(opts, topo, hold);
  NonbondedWork work;
  SimdRowKernel kernel(box, opts, pt, pos, forces);
  run_rows(nbl, topo.natoms(), slice, kernel, work);
  energy.lj += work.lj;
  energy.elec += work.elec;
  return work;
}

}  // namespace repro::md

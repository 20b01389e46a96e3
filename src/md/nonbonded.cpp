#include "md/nonbonded.hpp"

#include <cmath>
#include <map>
#include <numbers>
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
// Structure per i-row: a scalar gather/compact pass walks the neighbor
// list, applies the minimum-image convention and the cutoff test, and
// packs surviving pairs into SoA lanes (displacement, r^2, mixed LJ
// parameters, partner charge). Once a chunk fills, a branch-free
// #pragma omp simd pass evaluates the physics for every lane, and a short
// scalar pass scatters forces and sums energies in fixed lane order (so
// the result is deterministic across reruns and vector widths by
// construction).
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

struct SimdScratch {
  int j[kChunk];
  double dx[kChunk], dy[kChunk], dz[kChunk], r2[kChunk];
  double eps[kChunk], rmn[kChunk], qj[kChunk];
  double fs[kChunk];  // force scale -dEdr / r
  double lj[kChunk], el[kChunk];
};

SimdScratch& simd_scratch() {
  static thread_local SimdScratch s;
  return s;
}

// Per-call constants and chunk state for the simd row kernel.
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
  void row(int i, const int* neigh, std::size_t count, Keep keep,
           NonbondedWork& work) {
    const std::size_t si = static_cast<std::size_t>(i);
    xi_ = pos_[si];
    qqi_ = units::kCoulomb * pt_.charge[si];
    const std::size_t row_base = static_cast<std::size_t>(pt_.type_of[si]) *
                                 static_cast<std::size_t>(pt_.ntypes);
    const double* eps_row = pt_.eps.data() + row_base;
    const double* rmin_row = pt_.rmin.data() + row_base;
    fi_ = Vec3{};
    m_ = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const int j = neigh[t];
      if (!keep(j)) continue;
      ++work.pairs_listed;
      const std::size_t sj = static_cast<std::size_t>(j);
      const Vec3 d = box_.min_image(xi_ - pos_[sj]);
      const double r2 = util::norm2(d);
      if (r2 >= rc2_) continue;
      const int tj = pt_.type_of[sj];
      s_.j[m_] = j;
      s_.dx[m_] = d.x;
      s_.dy[m_] = d.y;
      s_.dz[m_] = d.z;
      s_.r2[m_] = r2;
      s_.eps[m_] = eps_row[tj];
      s_.rmn[m_] = rmin_row[tj];
      s_.qj[m_] = pt_.charge[sj];
      if (++m_ == kChunk) flush(work);
    }
    flush(work);
    forces_[si] += fi_;
  }

 private:
  void flush(NonbondedWork& work) {
    if (m_ == 0) return;
    if (ewald_) {
      physics_ewald();
    } else {
      physics_shift();
    }
    // Fixed-order scatter + energy sums keep the kernel deterministic.
    for (int k = 0; k < m_; ++k) {
      const Vec3 f{s_.dx[k] * s_.fs[k], s_.dy[k] * s_.fs[k],
                   s_.dz[k] * s_.fs[k]};
      fi_ += f;
      forces_[static_cast<std::size_t>(s_.j[k])] -= f;
      work.lj += s_.lj[k];
      work.elec += s_.el[k];
    }
    work.pairs_in_cutoff += static_cast<std::size_t>(m_);
    m_ = 0;
  }

  void physics_shift() {
    SimdScratch& s = s_;
    const double A = A_, B = B_, inv_d = inv_d_, ron = ron_;
    const double inv_rc2 = inv_rc2_, qqi = qqi_;
#pragma omp simd
    for (int k = 0; k < m_; ++k) {
      const double r2 = s.r2[k];
      const double r = std::sqrt(r2);
      const double inv_r = 1.0 / r;
      double lj, dE;
      lj_term(s.eps[k], s.rmn[k], r, r2, inv_r, A, B, inv_d, ron, lj, dE);
      const double qq = qqi * s.qj[k];
      const double x = 1.0 - r2 * inv_rc2;
      s.el[k] = qq * inv_r * x * x;
      dE += -qq * inv_r * inv_r * x * (1.0 + 3.0 * r2 * inv_rc2);
      s.lj[k] = lj;
      s.fs[k] = -dE * inv_r;
    }
  }

  void physics_ewald() {
    SimdScratch& s = s_;
    const ErfcTable& tab = erfc_table();
    const double* ev = tab.erfc_v.data();
    const double* ed = tab.erfc_d.data();
    const double* gv = tab.gauss_v.data();
    const double* gd = tab.gauss_d.data();
    const double A = A_, B = B_, inv_d = inv_d_, ron = ron_;
    const double beta = beta_, bspi = bspi_, qqi = qqi_;
    const double inv_h = 1.0 / kTabH;
#pragma omp simd
    for (int k = 0; k < m_; ++k) {
      const double r2 = s.r2[k];
      const double r = std::sqrt(r2);
      const double inv_r = 1.0 / r;
      double lj, dE;
      lj_term(s.eps[k], s.rmn[k], r, r2, inv_r, A, B, inv_d, ron, lj, dE);
      const double qq = qqi * s.qj[k];
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
  Vec3 xi_{};
  double qqi_ = 0.0;
  Vec3 fi_{};
  int m_ = 0;
};

struct KeepAll {
  bool operator()(int) const { return true; }
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

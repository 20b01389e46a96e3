#include "charmm/decomposition.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "charmm/ldb.hpp"
#include "charmm/spatial.hpp"
#include "fft/parallel_fft.hpp"
#include "md/bonded.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "util/flatpack.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace repro::charmm {

namespace {

using util::Vec3;

// Point-to-point tag spaces of the decomposition schedules. They must stay
// below mpi::Comm's collective tag base (1 << 20) and clear of the CMPI
// middleware's fixed tags (9900..9902, 9990+step); tags are unique per
// step and operation so a jitter-delayed packet from step k can never
// match a receive posted in step k+1.
constexpr int kScheduleTagBase = 1 << 18;
// Twelve tag slots per step: ops 0-4 are fold/expand (force) or
// reduce/exchange (task) or migrate/ghost/position-halo/force-halo/
// pme-gather (spatial); ops 5-10 are the spatial pencil-PME schedule
// (charge plane exchange, X->Y and Y->Z forward transposes, Z->Y and
// Y->X backward transposes, potential plane exchange); op 11 is the
// work-unit handoff of the measurement-driven load balancer.
constexpr int kScheduleTagsPerStep = 12;
// The PME group middleware draws its own fresh tag per operation from
// here up to the collective base.
constexpr int kGroupTagBase = 1 << 19;

int schedule_tag(int step, int op) {
  return kScheduleTagBase + kScheduleTagsPerStep * step + op;
}

void check_tag_budget(const CharmmConfig& config) {
  REPRO_REQUIRE(
      schedule_tag(config.nsteps, 0) <= kGroupTagBase,
      "decomposition schedule tags would overflow into the group tag space");
}

// --------------------------------------------------------------------------
// Replicated-data atom decomposition — the paper's CHARMM parallelization,
// extracted verbatim from the original run_charmm_rank so the default
// behaviour (and every golden file) is preserved to the byte.
// --------------------------------------------------------------------------
class AtomReplicatedDecomposition final : public Decomposition {
 public:
  const char* name() const override { return "atom"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw,
                    md::SharedNeighborList& lists) const override {
    mpi::Comm& comm = mw.comm();
    perf::RankRecorder& rec = comm.recorder();
    const int p = comm.size();
    const int shard = comm.rank();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    md::NonbondedOptions nb;
    nb.cutoff = config.cutoff;
    nb.switch_on = config.switch_on;
    nb.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                             : md::NonbondedOptions::Elec::kShift;
    nb.beta = config.pme.beta;
    nb.kernel = config.kernel;
    nb.table = md::build_pair_table(topo);

    // Replicated state: identical on every rank (the global sum broadcasts
    // bitwise-identical forces, so trajectories never diverge across
    // ranks).
    std::vector<Vec3> pos = sys.positions;
    std::vector<Vec3> vel;
    md::assign_velocities(topo, config.temperature_k, config.seed, vel);
    std::vector<Vec3> forces(natoms);
    std::vector<double> flat;
    md::NeighborList nbl(config.cutoff, config.skin);

    // PME machinery: compute cost flows through the middleware's component
    // recorder, so FFT/spreading time lands in whatever component is
    // active.
    pme::ParallelPme ppme(
        config.pme, box, mw,
        [&](double flops) { comm.compute(flops * cost.seconds_per_flop); });

    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      // ---------------------------------------------- classic routine --
      rec.set_component(perf::Component::kClassic);
      // Coherency barrier at energy entry (CHARMM synchronizes its
      // parallel energy call).
      if (config.coherency_barriers) mw.synchronize();

      if (step % config.list_rebuild_interval == 0) {
        perf::PhaseScope phase(rec, "list_build");
        lists.build(nbl, topo, box, pos, comm.rank(), step);
        comm.compute(cost.seconds_per_list_pair *
                     static_cast<double>(nbl.npairs()) * 2.0);
      }
      result.pairs_in_list = nbl.npairs();

      std::fill(forces.begin(), forces.end(), Vec3{});
      md::EnergyTerms energy;

      {
        perf::PhaseScope phase(rec, "bonded");
        const md::BondedWork bw =
            md::bonded_energy(topo, box, pos, forces, energy, shard, p);
        comm.compute(cost.seconds_per_bonded_term *
                     static_cast<double>(bw.total()));
      }

      {
        perf::PhaseScope phase(rec, "nonbonded");
        const md::NonbondedWork nw = md::nonbonded_energy(
            topo, box, pos, nbl, nb, forces, energy, shard, p);
        comm.compute(cost.seconds_per_pair *
                     static_cast<double>(nw.pairs_listed));
      }

      if (config.use_pme) {
        // Real-space corrections stay in the classic (time-domain) part.
        {
          perf::PhaseScope phase(rec, "ewald_corr");
          energy.ewald_excl += pme::ewald_exclusion_correction(
              topo, box, pos, config.pme.beta, forces, shard, p);
          comm.compute(cost.seconds_per_bonded_term *
                       static_cast<double>(topo.excluded_pairs().size()) /
                       static_cast<double>(p));
        }
        if (shard == 0) {
          energy.ewald_self += pme::ewald_self_energy(topo, config.pme.beta);
        }

        // ------------------------------------------------ PME routine --
        rec.set_component(perf::Component::kPme);
        // Coherency point before entering the frequency-domain phase.
        if (config.coherency_barriers) mw.synchronize();
        {
          perf::PhaseScope phase(rec, "pme_recip");
          energy.ewald_recip += ppme.reciprocal(topo, pos, forces);
        }
        rec.set_component(perf::Component::kClassic);
      }

      // The all-to-all collective that ends the classic energy
      // calculation: global force reduction plus the (small) energy
      // reduction. CHARMM synchronizes before combining, which is where
      // load imbalance lands.
      if (config.coherency_barriers) mw.synchronize();
      {
        perf::PhaseScope phase(rec, "force_reduce");
        util::flatten(forces, flat);
        mw.global_sum(flat.data(), flat.size());
        util::unflatten(flat, forces);
        std::array<double, md::EnergyTerms::kCount> earr = energy.to_array();
        mw.global_sum(earr.data(), earr.size());
        energy = md::EnergyTerms::from_array(earr);
      }
      result.last_energy = energy;

      // -------------------------------------------------- integration --
      // Not part of the measured energy calculation (the paper times the
      // energy routines); replicated on every rank.
      rec.set_component(perf::Component::kOther);
      {
        perf::PhaseScope phase(rec, "integrate");
        comm.compute(cost.seconds_per_integration_atom *
                     static_cast<double>(natoms));
      }
      const double kick = config.dt_ps * units::kForceToAccel;
      for (std::size_t i = 0; i < natoms; ++i) {
        vel[i] += forces[i] * (kick / topo.atom(static_cast<int>(i)).mass);
        pos[i] += vel[i] * config.dt_ps;
      }
      rec.end_step();
    }

    for (const auto& r : pos) {
      result.position_checksum += r.x + r.y + r.z;
    }
    return result;
  }
};

// --------------------------------------------------------------------------
// Force decomposition (Plimpton-style fold/expand).
//
// Atoms are split into p contiguous blocks; pair (i, j) of the interaction
// matrix belongs to rank (block(i) + block(j)) mod p. Each rank therefore
// produces force partials scattered over the whole array, but the
// reduction no longer needs a full-vector allreduce: a *fold* ships every
// foreign block's partial to the block's owner (a reduce-scatter, 24·N/p
// bytes per message) and an *expand* allgathers the owned totals. The
// per-rank reduction volume shrinks from 2·log2(p)·24N (tree allreduce)
// to 2·(p-1)·24N/p.
// --------------------------------------------------------------------------
class ForceDecomposition final : public Decomposition {
 public:
  const char* name() const override { return "force"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw,
                    md::SharedNeighborList& lists) const override {
    check_tag_budget(config);
    mpi::Comm& comm = mw.comm();
    perf::RankRecorder& rec = comm.recorder();
    const int p = comm.size();
    const int me = comm.rank();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    md::NonbondedOptions nb;
    nb.cutoff = config.cutoff;
    nb.switch_on = config.switch_on;
    nb.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                             : md::NonbondedOptions::Elec::kShift;
    nb.beta = config.pme.beta;
    nb.kernel = config.kernel;
    nb.table = md::build_pair_table(topo);

    // Contiguous atom blocks, one per rank (front-loaded remainder, the
    // same partition shape the slab FFT uses).
    const fft::SlabPartition blocks(natoms, p);
    std::vector<int> block_of(natoms);
    for (int b = 0; b < p; ++b) {
      for (std::size_t i = blocks.begin(b); i < blocks.end(b); ++i) {
        block_of[i] = b;
      }
    }

    std::vector<Vec3> pos = sys.positions;
    std::vector<Vec3> vel;
    md::assign_velocities(topo, config.temperature_k, config.seed, vel);
    std::vector<Vec3> forces(natoms);
    std::vector<double> flat;
    std::vector<double> scratch;
    md::NeighborList nbl(config.cutoff, config.skin);

    pme::ParallelPme ppme(
        config.pme, box, mw,
        [&](double flops) { comm.compute(flops * cost.seconds_per_flop); });

    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      rec.set_component(perf::Component::kClassic);
      if (config.coherency_barriers) mw.synchronize();

      if (step % config.list_rebuild_interval == 0) {
        perf::PhaseScope phase(rec, "list_build");
        lists.build(nbl, topo, box, pos, comm.rank(), step);
        comm.compute(cost.seconds_per_list_pair *
                     static_cast<double>(nbl.npairs()) * 2.0);
      }
      result.pairs_in_list = nbl.npairs();

      std::fill(forces.begin(), forces.end(), Vec3{});
      md::EnergyTerms energy;

      {
        perf::PhaseScope phase(rec, "bonded");
        const md::BondedWork bw =
            md::bonded_energy(topo, box, pos, forces, energy, me, p);
        comm.compute(cost.seconds_per_bonded_term *
                     static_cast<double>(bw.total()));
      }

      {
        perf::PhaseScope phase(rec, "nonbonded");
        const md::NonbondedWork nw = md::nonbonded_energy_blocked(
            topo, box, pos, nbl, nb, block_of, me, p, forces, energy);
        comm.compute(cost.seconds_per_pair *
                     static_cast<double>(nw.pairs_listed));
      }

      if (config.use_pme) {
        {
          perf::PhaseScope phase(rec, "ewald_corr");
          energy.ewald_excl += pme::ewald_exclusion_correction(
              topo, box, pos, config.pme.beta, forces, me, p);
          comm.compute(cost.seconds_per_bonded_term *
                       static_cast<double>(topo.excluded_pairs().size()) /
                       static_cast<double>(p));
        }
        if (me == 0) {
          energy.ewald_self += pme::ewald_self_energy(topo, config.pme.beta);
        }

        rec.set_component(perf::Component::kPme);
        if (config.coherency_barriers) mw.synchronize();
        {
          perf::PhaseScope phase(rec, "pme_recip");
          energy.ewald_recip += ppme.reciprocal(topo, pos, forces);
        }
        rec.set_component(perf::Component::kClassic);
      }

      if (config.coherency_barriers) mw.synchronize();
      util::flatten(forces, flat);
      fold_expand(comm, blocks, flat, scratch, step);
      util::unflatten(flat, forces);
      {
        // The energy scalars still need a comm-wide reduction; every rank
        // issues it, so the collective tag counters stay aligned.
        perf::PhaseScope phase(rec, "energy_reduce");
        std::array<double, md::EnergyTerms::kCount> earr = energy.to_array();
        mw.global_sum(earr.data(), earr.size());
        energy = md::EnergyTerms::from_array(earr);
      }
      result.last_energy = energy;

      rec.set_component(perf::Component::kOther);
      {
        perf::PhaseScope phase(rec, "integrate");
        comm.compute(cost.seconds_per_integration_atom *
                     static_cast<double>(natoms));
      }
      const double kick = config.dt_ps * units::kForceToAccel;
      for (std::size_t i = 0; i < natoms; ++i) {
        vel[i] += forces[i] * (kick / topo.atom(static_cast<int>(i)).mass);
        pos[i] += vel[i] * config.dt_ps;
      }
      rec.end_step();
    }

    for (const auto& r : pos) {
      result.position_checksum += r.x + r.y + r.z;
    }
    return result;
  }

 private:
  // Fold (reduce-scatter of per-block partials to their owners) followed
  // by expand (allgather of the owned totals). Receives accumulate in a
  // fixed source order, so the summed forces are bit-identical on every
  // rerun and every rank ends with the same full array.
  static void fold_expand(mpi::Comm& comm, const fft::SlabPartition& blocks,
                          std::vector<double>& flat,
                          std::vector<double>& scratch, int step) {
    const int p = comm.size();
    if (p == 1) return;
    const int me = comm.rank();
    const int fold_tag = schedule_tag(step, 0);
    const int expand_tag = schedule_tag(step, 1);
    const std::size_t my_begin = 3 * blocks.begin(me);
    const std::size_t my_count = 3 * blocks.count(me);
    perf::RankRecorder& rec = comm.recorder();
    {
      perf::PhaseScope phase(rec, "fold");
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        comm.send(dst, fold_tag, flat.data() + 3 * blocks.begin(dst),
                  3 * blocks.count(dst) * sizeof(double), /*exchange=*/true);
      }
      scratch.resize(my_count);
      for (int k = 1; k < p; ++k) {
        const int src = (me - k + p) % p;
        comm.recv(src, fold_tag, scratch.data(),
                  my_count * sizeof(double));
        for (std::size_t i = 0; i < my_count; ++i) {
          flat[my_begin + i] += scratch[i];
        }
      }
    }
    {
      perf::PhaseScope phase(rec, "expand");
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        comm.send(dst, expand_tag, flat.data() + my_begin,
                  my_count * sizeof(double), /*exchange=*/true);
      }
      for (int k = 1; k < p; ++k) {
        const int src = (me - k + p) % p;
        comm.recv(src, expand_tag, flat.data() + 3 * blocks.begin(src),
                  3 * blocks.count(src) * sizeof(double));
      }
    }
  }
};

// --------------------------------------------------------------------------
// Task decoupling: dedicated PME ranks.
//
// The last m ranks run only the reciprocal-space PME work (over their own
// m-slab FFT decomposition, presented through a group-restricted
// middleware); the first q = p - m ranks run only the classic routine,
// sharded q ways. The two components — which the default schedule
// serializes through coherency barriers — overlap in virtual time within
// each step. A combine joins the halves: each group binomial-reduces its
// packed forces+energies to its group root, the PME root ships its total
// to rank 0, and a comm-wide broadcast replicates the sum so every rank
// integrates identical forces.
// --------------------------------------------------------------------------
class TaskPmeDecomposition final : public Decomposition {
 public:
  explicit TaskPmeDecomposition(const DecompSpec& spec) : spec_(spec) {}

  const char* name() const override { return "task"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw,
                    md::SharedNeighborList& lists) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // Degenerate split: nothing to decouple, run the reference program.
      return AtomReplicatedDecomposition{}.run(sys, config, mw, lists);
    }
    REPRO_REQUIRE(config.use_pme,
                  "task decoupling dedicates ranks to PME; enable use_pme "
                  "or pick another decomposition");
    check_tag_budget(config);
    const int m = resolved_pme_ranks(spec_, p);
    const int q = p - m;
    const int me = comm.rank();
    const bool is_pme = me >= q;
    perf::RankRecorder& rec = comm.recorder();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    md::NonbondedOptions nb;
    nb.cutoff = config.cutoff;
    nb.switch_on = config.switch_on;
    nb.elec = md::NonbondedOptions::Elec::kEwaldDirect;
    nb.beta = config.pme.beta;
    nb.kernel = config.kernel;
    nb.table = md::build_pair_table(topo);

    std::vector<Vec3> pos = sys.positions;
    std::vector<Vec3> vel;
    md::assign_velocities(topo, config.temperature_k, config.seed, vel);
    std::vector<Vec3> forces(natoms);
    std::vector<double> flat;
    std::vector<double> combined;
    std::vector<double> scratch;
    md::NeighborList nbl(config.cutoff, config.skin);

    // The PME group's middleware presents ranks [q, p) as a communicator
    // of size m; the slab FFT and spreading inside ParallelPme see only
    // group coordinates. Classic ranks never construct PME machinery.
    std::optional<GroupMiddleware> gmw;
    std::optional<pme::ParallelPme> ppme;
    if (is_pme) {
      gmw.emplace(comm, q, m);
      ppme.emplace(
          config.pme, box, *gmw,
          [&](double flops) { comm.compute(flops * cost.seconds_per_flop); });
    }

    const std::size_t nterms = md::EnergyTerms::kCount;
    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      rec.set_component(is_pme ? perf::Component::kPme
                               : perf::Component::kClassic);
      // Coherency barrier at energy entry, as in the default schedule —
      // the only synchronization until the two task groups join below.
      if (config.coherency_barriers) mw.synchronize();

      std::fill(forces.begin(), forces.end(), Vec3{});
      md::EnergyTerms energy;

      if (is_pme) {
        perf::PhaseScope phase(rec, "pme_recip");
        energy.ewald_recip += ppme->reciprocal(topo, pos, forces);
      } else {
        if (step % config.list_rebuild_interval == 0) {
          perf::PhaseScope phase(rec, "list_build");
          lists.build(nbl, topo, box, pos, comm.rank(), step);
          comm.compute(cost.seconds_per_list_pair *
                       static_cast<double>(nbl.npairs()) * 2.0);
        }
        result.pairs_in_list = nbl.npairs();

        {
          perf::PhaseScope phase(rec, "bonded");
          const md::BondedWork bw =
              md::bonded_energy(topo, box, pos, forces, energy, me, q);
          comm.compute(cost.seconds_per_bonded_term *
                       static_cast<double>(bw.total()));
        }
        {
          perf::PhaseScope phase(rec, "nonbonded");
          const md::NonbondedWork nw = md::nonbonded_energy(
              topo, box, pos, nbl, nb, forces, energy, me, q);
          comm.compute(cost.seconds_per_pair *
                       static_cast<double>(nw.pairs_listed));
        }
        {
          perf::PhaseScope phase(rec, "ewald_corr");
          energy.ewald_excl += pme::ewald_exclusion_correction(
              topo, box, pos, config.pme.beta, forces, me, q);
          comm.compute(cost.seconds_per_bonded_term *
                       static_cast<double>(topo.excluded_pairs().size()) /
                       static_cast<double>(q));
        }
        if (me == 0) {
          energy.ewald_self += pme::ewald_self_energy(topo, config.pme.beta);
        }
      }

      // Join point: the groups must combine their halves anyway, so the
      // coherency barrier here is where the classic/PME load imbalance
      // lands (as synchronization), mirroring the default schedule's
      // pre-reduction barrier.
      if (config.coherency_barriers) mw.synchronize();

      // Pack forces + energy terms into one buffer so the combine is a
      // single message chain instead of two.
      util::flatten(forces, flat);
      combined.resize(flat.size() + nterms);
      std::memcpy(combined.data(), flat.data(),
                  flat.size() * sizeof(double));
      const std::array<double, md::EnergyTerms::kCount> earr =
          energy.to_array();
      std::memcpy(combined.data() + flat.size(), earr.data(),
                  nterms * sizeof(double));

      // Group-internal binomial reduce to the group root (rank 0 for the
      // classic group, rank q for the PME group) — point-to-point only,
      // so the groups' different programs cannot misalign the comm-wide
      // collective tag counters.
      if (is_pme) {
        perf::PhaseScope phase(rec, "pme_group_reduce");
        group_reduce_sum(comm, q, m, combined, scratch,
                         schedule_tag(step, 1));
      } else {
        perf::PhaseScope phase(rec, "classic_group_reduce");
        group_reduce_sum(comm, 0, q, combined, scratch,
                         schedule_tag(step, 0));
      }

      // The PME root ships its group's total to rank 0, which owns the
      // grand total.
      const std::size_t bytes = combined.size() * sizeof(double);
      if (me == q) {
        perf::PhaseScope phase(rec, "root_exchange");
        comm.send(0, schedule_tag(step, 2), combined.data(), bytes);
      } else if (me == 0) {
        perf::PhaseScope phase(rec, "root_exchange");
        scratch.resize(combined.size());
        comm.recv(q, schedule_tag(step, 2), scratch.data(), bytes);
        for (std::size_t i = 0; i < combined.size(); ++i) {
          combined[i] += scratch[i];
        }
      }

      // Comm-wide broadcast of the grand total — every rank participates,
      // keeping collective tags aligned and forces bit-identical.
      {
        perf::PhaseScope phase(rec, "result_bcast");
        mw.broadcast(combined.data(), bytes, 0);
      }
      std::memcpy(flat.data(), combined.data(),
                  flat.size() * sizeof(double));
      util::unflatten(flat, forces);
      std::array<double, md::EnergyTerms::kCount> total_earr{};
      std::memcpy(total_earr.data(), combined.data() + flat.size(),
                  nterms * sizeof(double));
      energy = md::EnergyTerms::from_array(total_earr);
      result.last_energy = energy;

      rec.set_component(perf::Component::kOther);
      {
        perf::PhaseScope phase(rec, "integrate");
        comm.compute(cost.seconds_per_integration_atom *
                     static_cast<double>(natoms));
      }
      const double kick = config.dt_ps * units::kForceToAccel;
      for (std::size_t i = 0; i < natoms; ++i) {
        vel[i] += forces[i] * (kick / topo.atom(static_cast<int>(i)).mass);
        pos[i] += vel[i] * config.dt_ps;
      }
      rec.end_step();
    }

    for (const auto& r : pos) {
      result.position_checksum += r.x + r.y + r.z;
    }
    return result;
  }

 private:
  // Binomial-tree sum over the rank group [base, base + gsize) to the
  // group root `base` (the same tree Comm::reduce_sum builds), using an
  // explicit tag instead of the comm-wide collective counter.
  static void group_reduce_sum(mpi::Comm& comm, int base, int gsize,
                               std::vector<double>& data,
                               std::vector<double>& scratch, int tag) {
    if (gsize == 1) return;
    const int gr = comm.rank() - base;
    const std::size_t n = data.size();
    scratch.resize(n);
    int mask = 1;
    while (mask < gsize) {
      if ((gr & mask) == 0) {
        const int peer = gr | mask;
        if (peer < gsize) {
          comm.recv(base + peer, tag, scratch.data(), n * sizeof(double));
          for (std::size_t i = 0; i < n; ++i) data[i] += scratch[i];
        }
      } else {
        comm.send(base + (gr & ~mask), tag, data.data(),
                  n * sizeof(double));
        break;
      }
      mask <<= 1;
    }
  }

  // Middleware over the contiguous rank group [base, base + size): rank()
  // and size() report group coordinates; the operations mirror the MPI
  // personality's algorithms but draw point-to-point tags from a private
  // sequence (kGroupTagBase..) instead of the comm-wide collective
  // counter, so the other group's program never has to participate.
  class GroupMiddleware final : public middleware::Middleware {
   public:
    GroupMiddleware(mpi::Comm& comm, int base, int size)
        : Middleware(comm), base_(base), size_(size) {}

    int rank() const override { return comm_.rank() - base_; }
    int size() const override { return size_; }

    void global_sum(double* data, std::size_t n) override {
      if (size_ == 1) return;
      std::vector<double> scratch;
      std::vector<double> vec(data, data + n);
      group_reduce_sum(comm_, base_, size_, vec, scratch, next_tag());
      std::memcpy(data, vec.data(), n * sizeof(double));
      broadcast(data, n * sizeof(double), 0);
    }

    void synchronize() override {
      if (size_ == 1) return;
      mpi::Comm::SyncScope sync(comm_);
      const int tag = next_tag();
      const int gr = rank();
      for (int k = 1; k < size_; k <<= 1) {
        comm_.send(base_ + (gr + k) % size_, tag, nullptr, 0);
        comm_.recv(base_ + (gr - k + size_) % size_, tag, nullptr, 0);
      }
    }

    void transpose(const void* send,
                   const std::vector<std::size_t>& send_counts,
                   const std::vector<std::size_t>& send_displs, void* recv,
                   const std::vector<std::size_t>& recv_counts,
                   const std::vector<std::size_t>& recv_displs) override {
      const int gp = size_;
      const int gr = rank();
      REPRO_REQUIRE(send_counts.size() == static_cast<std::size_t>(gp) &&
                        recv_counts.size() == static_cast<std::size_t>(gp),
                    "group transpose: counts must have one entry per rank");
      const auto* in = static_cast<const unsigned char*>(send);
      auto* out = static_cast<unsigned char*>(recv);
      std::memcpy(out + recv_displs[static_cast<std::size_t>(gr)],
                  in + send_displs[static_cast<std::size_t>(gr)],
                  send_counts[static_cast<std::size_t>(gr)]);
      if (gp == 1) return;
      perf::PhaseScope phase(comm_.recorder(), "pme_transpose");
      const int tag = next_tag();
      for (int k = 1; k < gp; ++k) {
        const auto dst = static_cast<std::size_t>((gr + k) % gp);
        const auto src = static_cast<std::size_t>((gr - k + gp) % gp);
        comm_.send(base_ + static_cast<int>(dst), tag,
                   in + send_displs[dst], send_counts[dst],
                   /*exchange=*/true);
        comm_.recv(base_ + static_cast<int>(src), tag,
                   out + recv_displs[src], recv_counts[src]);
      }
    }

    void broadcast(void* data, std::size_t bytes, int root) override {
      if (size_ == 1) return;
      const int tag = next_tag();
      const int vrank = (rank() - root + size_) % size_;
      int mask = 1;
      while (mask < size_) {
        if (vrank & mask) {
          comm_.recv(base_ + (vrank - mask + root) % size_, tag, data,
                     bytes);
          break;
        }
        mask <<= 1;
      }
      mask >>= 1;
      while (mask > 0) {
        if (vrank + mask < size_) {
          comm_.send(base_ + (vrank + mask + root) % size_, tag, data,
                     bytes);
        }
        mask >>= 1;
      }
    }

   private:
    int next_tag() {
      REPRO_REQUIRE(kGroupTagBase + static_cast<int>(seq_) <
                        mpi::Comm::kCollectiveTagBase,
                    "group tag space exhausted; tags would alias");
      return kGroupTagBase + static_cast<int>(seq_++);
    }

    int base_;
    int size_;
    unsigned seq_ = 0;
  };

  DecompSpec spec_;
};

// --------------------------------------------------------------------------
// Spatial domain decomposition with halo exchange.
//
// Ranks own cells of a 3-D grid (charmm/spatial.hpp); each rank keeps
// current positions/velocities only for its owned atoms plus position
// ghosts of the border cells of its ≤26 neighboring ranks. Per step the
// schedule is: position halo out to the neighbors, owned-row compute
// (bonded/non-bonded/exclusion terms belong to the owner of their first
// atom), force halo folding ghost-row partials back to the owners, and a
// 9-double energy allreduce. At every neighbor-list rebuild after the
// first, atoms that crossed into a foreign cell migrate (id+pos+vel) to
// the new owner and the ghost sets are renegotiated; the epoch is frozen
// in between, which is what makes the halo schedule — and the analytic
// predictor's message/byte counts — exactly reproducible.
//
// PME keeps its full-communication structure (the slab FFT wants every
// position): a pairwise all-to-all position gather precedes the
// reciprocal sum, and the reciprocal forces are combined with one
// full-vector allreduce, of which each rank applies only its owned rows.
//
// With ldb != off the unit of work is a migratable cell block (a work
// unit): the grid is overdecomposed into units ≫ ranks once at startup,
// and at every rebuild after the first the measured per-unit costs and
// per-rank speeds are allreduced, every rank recomputes the same
// unit→rank map, and moved units hand their atoms to the new owner
// before the ghost renegotiation. With ldb=off none of this machinery
// runs and the schedule is byte-identical to the paragraphs above.
// --------------------------------------------------------------------------
class SpatialDecomposition final : public Decomposition {
 public:
  explicit SpatialDecomposition(const DecompSpec& spec) : spec_(spec) {}

  const char* name() const override { return "spatial"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw,
                    md::SharedNeighborList& lists) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // One domain is the whole box: run the reference program so the
      // sequential trajectory (and its goldens) is preserved to the byte.
      return AtomReplicatedDecomposition{}.run(sys, config, mw, lists);
    }
    check_tag_budget(config);
    perf::RankRecorder& rec = comm.recorder();
    const int me = comm.rank();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    SpatialLayout layout = make_spatial_layout(
        spec_, box, config.cutoff + config.skin, p, &sys.positions);

    // Work-unit overdecomposition (ldb != off). The cell→unit grid is
    // frozen for the run; only the unit→rank map migrates. The cold-start
    // map replaces the packer's cell→rank assignment with a pair-cost
    // weighted one; every later epoch's layout is derived from the map.
    const bool ldb_on = spec_.ldb != LdbPolicy::kOff;
    std::optional<UnitGrid> units;
    std::vector<int> unit_rank;
    std::uint64_t unit_map_hash = 0;
    std::size_t units_moved = 0;
    auto hash_unit_map = [&]() {
      unit_map_hash = util::hash_combine(
          unit_map_hash, util::fnv1a_bytes(unit_rank.data(),
                                           unit_rank.size() * sizeof(int)));
    };
    if (ldb_on) {
      units.emplace(make_unit_grid(
          layout, resolved_units(spec_, p, layout.ncells()), sys.positions));
      unit_rank = initial_unit_map(*units, p);
      layout = layout_from_units(layout, *units, unit_rank);
      hash_unit_map();
    }
    std::vector<int> nbrs =
        layout.rank_neighbors[static_cast<std::size_t>(me)];
    std::size_t nn = nbrs.size();

    md::NonbondedOptions nb;
    nb.cutoff = config.cutoff;
    nb.switch_on = config.switch_on;
    nb.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                             : md::NonbondedOptions::Elec::kShift;
    nb.beta = config.pme.beta;
    nb.kernel = config.kernel;
    nb.table = md::build_pair_table(topo);

    // Full-size arrays; only owned (pos+vel) and ghost (pos) entries are
    // current. Velocities are assigned replicated so the initial owned
    // slices agree bitwise with the sequential run.
    std::vector<Vec3> pos = sys.positions;
    std::vector<Vec3> vel;
    md::assign_velocities(topo, config.temperature_k, config.seed, vel);
    std::vector<Vec3> forces(natoms);
    std::vector<Vec3> recip_forces;
    std::vector<double> flat;
    md::NeighborList nbl(config.cutoff, config.skin);

    // Slab or pencil PME. Neither constructor communicates or charges
    // compute, so wrapping the slab machinery in an optional leaves the
    // slab path's schedule byte-identical to the unconditional build.
    auto charge_flops = [&](double flops) {
      comm.compute(flops * cost.seconds_per_flop);
    };
    const bool pencil =
        config.use_pme && spec_.pme_mode == PmeMode::kPencil;
    std::optional<pme::ParallelPme> ppme;
    std::optional<pme::PencilPme> pencil_pme;
    int pencil_py = 0;
    int pencil_pz = 0;
    if (pencil) {
      const auto [py, pz] =
          resolved_pencil_grid(spec_, p, config.pme.ny, config.pme.nz);
      pencil_py = py;
      pencil_pz = pz;
      pencil_pme.emplace(config.pme, box, comm, py, pz,
                         make_pme_regions(layout, config.pme, config.skin),
                         charge_flops);
    } else {
      ppme.emplace(config.pme, box, mw, charge_flops);
    }

    // Epoch state, frozen between rebuilds.
    std::vector<int> owned;
    std::vector<std::uint8_t> owned_mask(natoms, 0);
    std::vector<std::vector<int>> send_ids(nn);  // to nbrs[k], sorted
    std::vector<std::vector<int>> recv_ids(nn);  // ghosts from nbrs[k]
    std::vector<int> candidates;
    std::size_t owned_excl = 0;
    std::size_t migrated = 0;

    // Reused wire buffers (payloads are doubles; atom ids are exact in a
    // double far beyond any system size here).
    std::vector<std::vector<double>> out(nn);
    std::vector<double> in(1 + 7 * natoms);
    std::vector<double> gather_buf;

    // ldb measurement state for the current epoch: per-unit work counts
    // and cumulative model-cost accumulators per measured phase. The
    // accumulators mirror the recorder's += sequence exactly (same value,
    // same order, same per-step granularity), so a fault-free rank's
    // measured/model ratio is exactly 1.0 and the analytic predictor's
    // speed-1.0 replay reproduces the balancer's decisions bit-for-bit.
    UnitWork epoch_work;
    std::vector<int> unit_of_row;
    std::array<double, 3> model_cum{};
    std::array<double, 3> model_snap{};
    std::array<double, 3> measured_snap{};
    static constexpr const char* kMeasuredPhases[3] = {"bonded", "nonbonded",
                                                      "ewald_corr"};
    auto measured_cum = [&](int i) {
      const auto& phase_times = rec.phase_times();
      const auto it = phase_times.find(kMeasuredPhases[i]);
      return it == phase_times.end() ? 0.0 : it->second;
    };
    auto begin_measurement = [&]() {
      unit_of_row.assign(natoms, -1);
      for (int i : owned) {
        unit_of_row[static_cast<std::size_t>(i)] =
            units->cell_unit[static_cast<std::size_t>(
                layout.cell_of(pos[static_cast<std::size_t>(i)]))];
      }
      epoch_work = count_unit_work(units->nunits, topo, nbl, unit_of_row);
      for (int i = 0; i < 3; ++i) {
        measured_snap[static_cast<std::size_t>(i)] = measured_cum(i);
        model_snap[static_cast<std::size_t>(i)] =
            model_cum[static_cast<std::size_t>(i)];
      }
    };

    // Step 0: every rank derives the identical global epoch from the
    // replicated initial positions — no communication.
    auto adopt_global_epoch = [&]() {
      const SpatialEpoch epoch = make_global_epoch(layout, pos);
      owned = epoch.owned[static_cast<std::size_t>(me)];
      send_ids = epoch.send[static_cast<std::size_t>(me)];
      for (std::size_t k = 0; k < nn; ++k) {
        const auto s = static_cast<std::size_t>(nbrs[k]);
        const auto& back = layout.rank_neighbors[s];
        const auto it = std::lower_bound(back.begin(), back.end(), me);
        recv_ids[k] =
            epoch.send[s][static_cast<std::size_t>(it - back.begin())];
      }
    };

    auto refresh_derived = [&]() {
      std::fill(owned_mask.begin(), owned_mask.end(), 0);
      for (int i : owned) owned_mask[static_cast<std::size_t>(i)] = 1;
      candidates = owned;
      for (const auto& r : recv_ids) {
        candidates.insert(candidates.end(), r.begin(), r.end());
      }
      owned_excl = 0;
      for (const auto& [i, j] : topo.excluded_pairs()) {
        (void)j;
        if (owned_mask[static_cast<std::size_t>(i)]) ++owned_excl;
      }
    };

    // Atoms that left my cells move (id, pos, vel) to the new owner. An
    // atom drifting a whole cell width (≥ cutoff + skin) past its
    // neighbor shell within one epoch would need velocities far beyond
    // anything this integrator produces; assert rather than deadlock.
    auto migrate = [&](int step) {
      perf::PhaseScope phase(rec, "migrate");
      const int tag = schedule_tag(step, 0);
      for (auto& b : out) {
        b.clear();
        b.push_back(0.0);
      }
      std::vector<int> keep;
      keep.reserve(owned.size());
      for (int i : owned) {
        const auto ui = static_cast<std::size_t>(i);
        const int r = layout.cell_rank[static_cast<std::size_t>(
            layout.cell_of(pos[ui]))];
        if (r == me) {
          keep.push_back(i);
          continue;
        }
        const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), r);
        REPRO_REQUIRE(it != nbrs.end() && *it == r,
                      "atom migrated beyond the neighbor shell in one "
                      "epoch; the list rebuild interval is too long for "
                      "this timestep");
        auto& b = out[static_cast<std::size_t>(it - nbrs.begin())];
        b.push_back(static_cast<double>(i));
        b.push_back(pos[ui].x);
        b.push_back(pos[ui].y);
        b.push_back(pos[ui].z);
        b.push_back(vel[ui].x);
        b.push_back(vel[ui].y);
        b.push_back(vel[ui].z);
        ++migrated;
      }
      for (std::size_t k = 0; k < nn; ++k) {
        out[k][0] = static_cast<double>((out[k].size() - 1) / 7);
        comm.send(nbrs[k], tag, out[k].data(),
                  out[k].size() * sizeof(double), /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        const auto n = static_cast<std::size_t>(in[0]);
        for (std::size_t a = 0; a < n; ++a) {
          const double* rec_ptr = in.data() + 1 + 7 * a;
          const int id = static_cast<int>(rec_ptr[0]);
          const auto uid = static_cast<std::size_t>(id);
          pos[uid] = {rec_ptr[1], rec_ptr[2], rec_ptr[3]};
          vel[uid] = {rec_ptr[4], rec_ptr[5], rec_ptr[6]};
          keep.push_back(id);
        }
      }
      std::sort(keep.begin(), keep.end());
      owned = std::move(keep);
    };

    // Renegotiate ghost sets for the new epoch: ship (ids, positions) of
    // my border-cell atoms to each neighbor; what arrives defines my
    // ghosts. Counts are unknown to the receiver, so every neighbor gets
    // a message even when empty.
    auto exchange_ghosts = [&](int step) {
      perf::PhaseScope phase(rec, "ghost_exchange");
      const int tag = schedule_tag(step, 1);
      for (auto& s : send_ids) s.clear();
      for (int i : owned) {
        const auto c = static_cast<std::size_t>(
            layout.cell_of(pos[static_cast<std::size_t>(i)]));
        for (int s : layout.cell_border_ranks[c]) {
          const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), s);
          send_ids[static_cast<std::size_t>(it - nbrs.begin())].push_back(i);
        }
      }
      for (std::size_t k = 0; k < nn; ++k) {
        auto& b = out[k];
        b.clear();
        b.push_back(static_cast<double>(send_ids[k].size()));
        for (int i : send_ids[k]) b.push_back(static_cast<double>(i));
        for (int i : send_ids[k]) {
          const auto ui = static_cast<std::size_t>(i);
          b.push_back(pos[ui].x);
          b.push_back(pos[ui].y);
          b.push_back(pos[ui].z);
        }
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        const auto n = static_cast<std::size_t>(in[0]);
        recv_ids[k].resize(n);
        for (std::size_t a = 0; a < n; ++a) {
          recv_ids[k][a] = static_cast<int>(in[1 + a]);
        }
        for (std::size_t a = 0; a < n; ++a) {
          const double* r = in.data() + 1 + n + 3 * a;
          pos[static_cast<std::size_t>(recv_ids[k][a])] = {r[0], r[1], r[2]};
        }
      }
    };

    // Per-step position halo: both sides know the epoch's counts, so
    // payloads are raw coordinates and empty lists send nothing.
    auto halo_positions = [&](int step) {
      perf::PhaseScope phase(rec, "halo_exchange");
      const int tag = schedule_tag(step, 2);
      for (std::size_t k = 0; k < nn; ++k) {
        if (send_ids[k].empty()) continue;
        auto& b = out[k];
        b.clear();
        for (int i : send_ids[k]) {
          const auto ui = static_cast<std::size_t>(i);
          b.push_back(pos[ui].x);
          b.push_back(pos[ui].y);
          b.push_back(pos[ui].z);
        }
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        if (recv_ids[k].empty()) continue;
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        for (std::size_t a = 0; a < recv_ids[k].size(); ++a) {
          const double* r = in.data() + 3 * a;
          pos[static_cast<std::size_t>(recv_ids[k][a])] = {r[0], r[1], r[2]};
        }
      }
    };

    // Reverse halo: partial forces accumulated on my ghost rows go home
    // (byte-symmetric with the position halo), and the partials my
    // neighbors held for my atoms fold into my owned rows.
    auto halo_forces = [&](int step) {
      perf::PhaseScope phase(rec, "halo_fold");
      const int tag = schedule_tag(step, 3);
      for (std::size_t k = 0; k < nn; ++k) {
        if (recv_ids[k].empty()) continue;
        auto& b = out[k];
        b.clear();
        for (int i : recv_ids[k]) {
          const auto ui = static_cast<std::size_t>(i);
          b.push_back(forces[ui].x);
          b.push_back(forces[ui].y);
          b.push_back(forces[ui].z);
        }
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        if (send_ids[k].empty()) continue;
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        for (std::size_t a = 0; a < send_ids[k].size(); ++a) {
          const double* r = in.data() + 3 * a;
          forces[static_cast<std::size_t>(send_ids[k][a])] +=
              Vec3{r[0], r[1], r[2]};
        }
      }
    };

    // PME wants every position on every rank (slab spreading): a pairwise
    // all-to-all gather of (count, ids, positions). Every rank sends to
    // every other — owned sets are unknown remotely, and idle ranks must
    // still participate so the schedule cannot deadlock.
    auto gather_positions = [&](int step) {
      perf::PhaseScope phase(rec, "pme_gather");
      const int tag = schedule_tag(step, 4);
      auto& b = gather_buf;
      b.clear();
      b.push_back(static_cast<double>(owned.size()));
      for (int i : owned) b.push_back(static_cast<double>(i));
      for (int i : owned) {
        const auto ui = static_cast<std::size_t>(i);
        b.push_back(pos[ui].x);
        b.push_back(pos[ui].y);
        b.push_back(pos[ui].z);
      }
      for (int k = 1; k < p; ++k) {
        comm.send((me + k) % p, tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (int k = 1; k < p; ++k) {
        comm.recv((me - k + p) % p, tag, in.data(),
                  in.size() * sizeof(double));
        const auto n = static_cast<std::size_t>(in[0]);
        for (std::size_t a = 0; a < n; ++a) {
          const double* r = in.data() + 1 + n + 3 * a;
          pos[static_cast<std::size_t>(in[1 + a])] = {r[0], r[1], r[2]};
        }
      }
    };

    // Measurement-driven rebalance, run at a rebuild between the drift
    // migration (old map: every owned atom sits in one of my cells, so
    // each unit's atoms are wholly on its old owner) and the ghost
    // renegotiation (new map). Three sub-steps:
    //   ldb_collect : allreduce of K unit costs (each summed by exactly
    //                 one rank, so the sum is v + 0 + ... and
    //                 order-independent) plus p measured rank speeds;
    //   decide      : every rank derives the identical new map;
    //   unit_handoff: the old owner of each moved unit ships its atoms
    //                 [count, (id, pos, vel) x n] to the new owner. All
    //                 sends post before any receive, both sides walk
    //                 moved units in ascending id, so multiple units
    //                 between one pair stay FIFO-aligned on one tag.
    auto rebalance = [&](int step) {
      const int nunits = units->nunits;
      std::vector<double> collect(static_cast<std::size_t>(nunits + p), 0.0);
      double measured = 0.0;
      double model = 0.0;
      for (int i = 0; i < 3; ++i) {
        measured += measured_cum(i) - measured_snap[static_cast<std::size_t>(i)];
        model += model_cum[static_cast<std::size_t>(i)] -
                 model_snap[static_cast<std::size_t>(i)];
      }
      collect[static_cast<std::size_t>(nunits + me)] =
          model > 0.0 ? measured / model : 1.0;
      for (int u = 0; u < nunits; ++u) {
        if (unit_rank[static_cast<std::size_t>(u)] != me) continue;
        const auto su = static_cast<std::size_t>(u);
        collect[su] =
            unit_cost_seconds(cost, epoch_work.pairs[su],
                              epoch_work.bonded[su], epoch_work.excl[su],
                              config.use_pme);
      }
      {
        perf::PhaseScope phase(rec, "ldb_collect");
        mw.global_sum(collect.data(), collect.size());
      }
      const std::vector<double> unit_cost(collect.begin(),
                                          collect.begin() + nunits);
      const std::vector<double> rank_speed(collect.begin() + nunits,
                                           collect.end());
      const std::vector<int> new_map =
          rebalance_units(spec_.ldb, unit_cost, rank_speed, unit_rank);
      std::vector<int> moved;
      for (int u = 0; u < nunits; ++u) {
        if (new_map[static_cast<std::size_t>(u)] !=
            unit_rank[static_cast<std::size_t>(u)]) {
          moved.push_back(u);
        }
      }
      units_moved += moved.size();
      std::vector<int> keep;
      keep.reserve(owned.size());
      {
        perf::PhaseScope phase(rec, "unit_handoff");
        const int tag = schedule_tag(step, 11);
        std::vector<int> my_moved;
        for (int u : moved) {
          if (unit_rank[static_cast<std::size_t>(u)] == me) my_moved.push_back(u);
        }
        std::vector<std::vector<double>> unit_out(my_moved.size());
        for (auto& b : unit_out) b.push_back(0.0);
        for (int i : owned) {
          const auto ui = static_cast<std::size_t>(i);
          const int u = units->cell_unit[static_cast<std::size_t>(
              layout.cell_of(pos[ui]))];
          if (new_map[static_cast<std::size_t>(u)] == me) {
            keep.push_back(i);
            continue;
          }
          const auto it =
              std::lower_bound(my_moved.begin(), my_moved.end(), u);
          REPRO_REQUIRE(it != my_moved.end() && *it == u,
                        "owned atom in a unit this rank does not own");
          auto& b = unit_out[static_cast<std::size_t>(it - my_moved.begin())];
          b.push_back(static_cast<double>(i));
          b.push_back(pos[ui].x);
          b.push_back(pos[ui].y);
          b.push_back(pos[ui].z);
          b.push_back(vel[ui].x);
          b.push_back(vel[ui].y);
          b.push_back(vel[ui].z);
        }
        for (std::size_t k = 0; k < my_moved.size(); ++k) {
          auto& b = unit_out[k];
          b[0] = static_cast<double>((b.size() - 1) / 7);
          comm.send(new_map[static_cast<std::size_t>(my_moved[k])], tag,
                    b.data(), b.size() * sizeof(double), /*exchange=*/true);
        }
        for (int u : moved) {
          if (new_map[static_cast<std::size_t>(u)] != me) continue;
          comm.recv(unit_rank[static_cast<std::size_t>(u)], tag, in.data(),
                    in.size() * sizeof(double));
          const auto n = static_cast<std::size_t>(in[0]);
          for (std::size_t a = 0; a < n; ++a) {
            const double* rec_ptr = in.data() + 1 + 7 * a;
            const int id = static_cast<int>(rec_ptr[0]);
            const auto uid = static_cast<std::size_t>(id);
            pos[uid] = {rec_ptr[1], rec_ptr[2], rec_ptr[3]};
            vel[uid] = {rec_ptr[4], rec_ptr[5], rec_ptr[6]};
            keep.push_back(id);
          }
        }
      }
      std::sort(keep.begin(), keep.end());
      owned = std::move(keep);

      // Adopt the new map: re-derive the epoch topology (neighbor sets,
      // per-neighbor buffers, pencil-PME regions) from the new layout.
      unit_rank = new_map;
      layout = layout_from_units(layout, *units, unit_rank);
      hash_unit_map();
      nbrs = layout.rank_neighbors[static_cast<std::size_t>(me)];
      nn = nbrs.size();
      out.assign(nn, {});
      send_ids.assign(nn, {});
      recv_ids.assign(nn, {});
      if (pencil) {
        pencil_pme.emplace(config.pme, box, comm, pencil_py, pencil_pz,
                           make_pme_regions(layout, config.pme, config.skin),
                           charge_flops);
      }
    };

    RankRunResult result;
    std::size_t local_pairs = 0;
    for (int step = 0; step < config.nsteps; ++step) {
      rec.set_component(perf::Component::kClassic);
      if (config.coherency_barriers) mw.synchronize();

      if (step % config.list_rebuild_interval == 0) {
        if (step == 0) {
          adopt_global_epoch();
        } else {
          migrate(step);
          if (ldb_on) rebalance(step);
          exchange_ghosts(step);
        }
        refresh_derived();
        {
          perf::PhaseScope phase(rec, "list_build");
          nbl.build_subset(topo, box, pos, candidates, owned_mask);
          comm.compute(cost.seconds_per_list_pair *
                       static_cast<double>(nbl.npairs()) * 2.0);
          local_pairs = nbl.npairs();
        }
        if (ldb_on) begin_measurement();
      }

      halo_positions(step);

      std::fill(forces.begin(), forces.end(), Vec3{});
      md::EnergyTerms energy;

      {
        perf::PhaseScope phase(rec, "bonded");
        const md::BondedWork bw = md::bonded_energy_owned(
            topo, box, pos, owned_mask, forces, energy);
        const double sec = cost.seconds_per_bonded_term *
                           static_cast<double>(bw.total());
        comm.compute(sec);
        model_cum[0] += sec;
      }

      {
        perf::PhaseScope phase(rec, "nonbonded");
        const md::NonbondedWork nw = md::nonbonded_energy(
            topo, box, pos, nbl, nb, forces, energy, 0, 1);
        const double sec = cost.seconds_per_pair *
                           static_cast<double>(nw.pairs_listed);
        comm.compute(sec);
        model_cum[1] += sec;
      }

      if (config.use_pme) {
        {
          perf::PhaseScope phase(rec, "ewald_corr");
          energy.ewald_excl += pme::ewald_exclusion_correction_owned(
              topo, box, pos, owned_mask, config.pme.beta, forces);
          const double sec = cost.seconds_per_bonded_term *
                             static_cast<double>(owned_excl);
          comm.compute(sec);
          model_cum[2] += sec;
        }
        if (me == 0) {
          energy.ewald_self += pme::ewald_self_energy(topo, config.pme.beta);
        }

        rec.set_component(perf::Component::kPme);
        if (config.coherency_barriers) mw.synchronize();
        if (pencil) {
          // Pencil PME: charges are spread locally and exchanged as
          // region plane blocks, the FFT transposes within pencil rows/
          // columns, and owned-atom forces come back complete — no
          // position gather and no reciprocal-force allreduce.
          perf::PhaseScope phase(rec, "pme_recip");
          energy.ewald_recip += pencil_pme->reciprocal(
              topo, pos, owned, forces, schedule_tag(step, 5));
        } else {
          gather_positions(step);
          recip_forces.assign(natoms, Vec3{});
          {
            perf::PhaseScope phase(rec, "pme_recip");
            energy.ewald_recip += ppme->reciprocal(topo, pos, recip_forces);
          }
          {
            // The reciprocal force on an atom has contributions from
            // every slab; combine with one full-vector allreduce, of
            // which each rank keeps its owned rows (ghost rows would
            // double-count after the force halo).
            perf::PhaseScope phase(rec, "recip_reduce");
            util::flatten(recip_forces, flat);
            mw.global_sum(flat.data(), flat.size());
            util::unflatten(flat, recip_forces);
          }
          for (int i : owned) {
            const auto ui = static_cast<std::size_t>(i);
            forces[ui] += recip_forces[ui];
          }
        }
        rec.set_component(perf::Component::kClassic);
      }

      halo_forces(step);

      {
        perf::PhaseScope phase(rec, "energy_reduce");
        std::array<double, md::EnergyTerms::kCount> earr = energy.to_array();
        mw.global_sum(earr.data(), earr.size());
        energy = md::EnergyTerms::from_array(earr);
      }
      result.last_energy = energy;

      rec.set_component(perf::Component::kOther);
      {
        perf::PhaseScope phase(rec, "integrate");
        comm.compute(cost.seconds_per_integration_atom *
                     static_cast<double>(owned.size()));
      }
      const double kick = config.dt_ps * units::kForceToAccel;
      for (int i : owned) {
        const auto ui = static_cast<std::size_t>(i);
        vel[ui] += forces[ui] * (kick / topo.atom(i).mass);
        pos[ui] += vel[ui] * config.dt_ps;
      }
      rec.end_step();
    }

    // Distributed state needs one last reduction so every rank reports
    // the identical totals run_experiment asserts on: the coordinate
    // checksum over owners, the global pair count, and the migrations.
    {
      rec.set_component(perf::Component::kOther);
      perf::PhaseScope phase(rec, "result_reduce");
      double partial = 0.0;
      for (int i : owned) {
        const auto ui = static_cast<std::size_t>(i);
        partial += pos[ui].x + pos[ui].y + pos[ui].z;
      }
      double tail[3] = {partial, static_cast<double>(local_pairs),
                        static_cast<double>(migrated)};
      mw.global_sum(tail, 3);
      result.position_checksum = tail[0];
      result.pairs_in_list = static_cast<std::size_t>(tail[1] + 0.5);
      result.atoms_migrated = static_cast<std::size_t>(tail[2] + 0.5);
    }
    // Replicated balancer state: every rank computed the same maps from
    // the same allreduced inputs, so these need no reduction.
    result.units_moved = units_moved;
    result.unit_map_hash = unit_map_hash;
    return result;
  }

 private:
  DecompSpec spec_;
};

}  // namespace

std::unique_ptr<Decomposition> make_decomposition(const DecompSpec& spec) {
  switch (spec.kind) {
    case DecompKind::kAtomReplicated:
      return std::make_unique<AtomReplicatedDecomposition>();
    case DecompKind::kForce:
      return std::make_unique<ForceDecomposition>();
    case DecompKind::kTaskPme:
      return std::make_unique<TaskPmeDecomposition>(spec);
    case DecompKind::kSpatial:
      return std::make_unique<SpatialDecomposition>(spec);
  }
  REPRO_UNREACHABLE("bad decomposition kind");
}

}  // namespace repro::charmm

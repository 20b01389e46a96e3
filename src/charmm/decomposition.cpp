#include "charmm/decomposition.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <ranges>

#include "charmm/ldb.hpp"
#include "charmm/spatial.hpp"
#include "fft/parallel_fft.hpp"
#include "md/bonded.hpp"
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
// The PME group's transport draws its own fresh tag per transpose from
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
// The one force-evaluation path.
//
// Strategies differ only in which terms a rank evaluates and how partial
// forces become the totals it integrates. Everything else in a step
// program is written once here: the pair-kernel options and replicated
// initial state (taken from the run's SharedRunState), the list-build,
// classic-term and integrate phases with their cost-model charges, and the
// position checksum. A strategy supplies its partition (a ClassicShare)
// and its communication schedule.
// --------------------------------------------------------------------------

// The classic-term phases, in evaluation order. Spatial's load balancer
// measures exactly these.
constexpr std::array<const char*, 3> kMeasuredPhases = {"bonded", "nonbonded",
                                                        "ewald_corr"};

// A rank's share of the classic terms: one WorkSlice per term kind, and
// the ewald_corr phase's model charge (the replicated strategies charge an
// even 1/p of the excluded pairs, spatial its owned count).
struct ClassicShare {
  md::WorkSlice bonded;
  md::WorkSlice pairs;
  md::WorkSlice exclusions;
  double ewald_corr_seconds = 0.0;
};

// One rank's state and the step blocks every strategy shares. Positions,
// velocities and forces are full-size arrays; the replicated strategies
// keep every row current, spatial only its owned and ghost rows.
struct RankProgram {
  // Positions and velocities start as copies of the system's and the
  // run's shared initial state.
  RankProgram(const sysbuild::BuiltSystem& sys, const CharmmConfig& config,
              middleware::Middleware& mw, SharedRunState& shared)
      : mw(mw),
        comm(mw.comm()),
        rec(comm.recorder()),
        config(config),
        cost(config.cost),
        topo(sys.topo),
        box(sys.box),
        shared(shared),
        nb(shared.nonbonded()),
        pos(sys.positions),
        vel(shared.velocities()),
        forces(sys.positions.size()),
        nbl(config.cutoff, config.skin) {
    REPRO_REQUIRE(vel.size() == pos.size(),
                  "shared run state was built for another system");
  }

  // Every atom, as the replicated strategies' integrate and checksum rows.
  auto all_atoms() const { return std::views::iota(0, topo.natoms()); }

  // The replicated strategies' share: every term kind interleaved over
  // `stride` ranks.
  ClassicShare interleaved_share(int shard, int stride) const {
    const md::WorkSlice slice = md::WorkSlice::interleaved(shard, stride);
    return {slice, slice, slice,
            cost.seconds_per_bonded_term *
                static_cast<double>(topo.excluded_pairs().size()) /
                static_cast<double>(stride)};
  }

  // Charges PME/FFT flops to whatever component is active.
  std::function<void(double)> charge_flops() {
    return [this](double flops) {
      comm.compute(flops * cost.seconds_per_flop);
    };
  }

  // CHARMM synchronizes before its global operations ("coherency
  // maintenance").
  void coherency_barrier() {
    if (config.coherency_barriers) mw.synchronize();
  }

  // Opens a step in `component` at the energy-entry coherency barrier and
  // clears the force and energy accumulators.
  void begin_step(perf::Component component) {
    rec.set_component(component);
    coherency_barrier();
    std::fill(forces.begin(), forces.end(), Vec3{});
    energy = md::EnergyTerms{};
  }

  // The "list_build" phase: `build` refreshes nbl, charged by its pairs.
  template <class Build>
  void build_list(Build&& build) {
    perf::PhaseScope phase(rec, "list_build");
    build();
    comm.compute(cost.seconds_per_list_pair *
                 static_cast<double>(nbl.npairs()) * 2.0);
  }

  // The replicated ranks' list, rebuilt at every rebuild step (built once
  // per step across ranks by the shared lists).
  void replicated_list(int step) {
    if (step % config.list_rebuild_interval != 0) return;
    build_list([&] {
      shared.lists().build(nbl, topo, box, pos, comm.rank(), step);
    });
  }

  // bonded -> nonbonded -> ewald_corr (PME only) over `share`, each phase
  // charged its model cost, plus the Ewald self term on rank 0. Returns
  // the seconds charged per kMeasuredPhases entry.
  std::array<double, 3> classic_terms(const ClassicShare& share) {
    std::array<double, 3> sec{};
    {
      perf::PhaseScope phase(rec, kMeasuredPhases[0]);
      const md::BondedWork bw =
          md::bonded_energy(topo, box, pos, forces, energy, share.bonded);
      sec[0] = cost.seconds_per_bonded_term * static_cast<double>(bw.total());
      comm.compute(sec[0]);
    }
    {
      perf::PhaseScope phase(rec, kMeasuredPhases[1]);
      const md::NonbondedWork nw = md::nonbonded_energy(
          topo, box, pos, nbl, nb, forces, energy, share.pairs);
      sec[1] = cost.seconds_per_pair * static_cast<double>(nw.pairs_listed);
      comm.compute(sec[1]);
    }
    if (!config.use_pme) return sec;
    {
      // Real-space corrections stay in the classic (time-domain) part.
      perf::PhaseScope phase(rec, kMeasuredPhases[2]);
      energy.ewald_excl += pme::ewald_exclusion_correction(
          topo, box, pos, config.pme.beta, forces, share.exclusions);
      sec[2] = share.ewald_corr_seconds;
      comm.compute(sec[2]);
    }
    if (comm.rank() == 0) {
      energy.ewald_self += pme::ewald_self_energy(topo, config.pme.beta);
    }
    return sec;
  }

  // The frequency-domain routine: `body` runs in the PME component after
  // the coherency point before it.
  template <class Body>
  void pme_routine(Body&& body) {
    rec.set_component(perf::Component::kPme);
    coherency_barrier();
    body();
    rec.set_component(perf::Component::kClassic);
  }

  // The slab reciprocal sum into this rank's force partials.
  void slab_reciprocal(pme::ParallelPme& ppme) {
    perf::PhaseScope phase(rec, "pme_recip");
    energy.ewald_recip += ppme.reciprocal(topo, pos, forces);
  }

  // Comm-wide sum of the energy terms.
  void sum_energy() {
    std::array<double, md::EnergyTerms::kCount> earr = energy.to_array();
    mw.global_sum(earr.data(), earr.size());
    energy = md::EnergyTerms::from_array(earr);
  }

  // Integrates `rows` — not part of the measured energy calculation (the
  // paper times the energy routines) — and closes the step.
  template <class Rows>
  void finish_step(const Rows& rows) {
    rec.set_component(perf::Component::kOther);
    {
      perf::PhaseScope phase(rec, "integrate");
      comm.compute(cost.seconds_per_integration_atom *
                   static_cast<double>(rows.size()));
    }
    const double kick = config.dt_ps * units::kForceToAccel;
    for (int i : rows) {
      const auto ui = static_cast<std::size_t>(i);
      vel[ui] += forces[ui] * (kick / topo.atom(i).mass);
      pos[ui] += vel[ui] * config.dt_ps;
    }
    rec.end_step();
  }

  // Sum of the coordinates of `rows`, in row order.
  template <class Rows>
  double position_sum(const Rows& rows) const {
    double sum = 0.0;
    for (int i : rows) {
      const Vec3& r = pos[static_cast<std::size_t>(i)];
      sum += r.x + r.y + r.z;
    }
    return sum;
  }

  middleware::Middleware& mw;
  mpi::Comm& comm;
  perf::RankRecorder& rec;
  const CharmmConfig& config;
  const CostModel& cost;
  const md::Topology& topo;
  const md::Box& box;
  SharedRunState& shared;
  const md::NonbondedOptions& nb;
  std::vector<Vec3> pos;
  std::vector<Vec3> vel;
  std::vector<Vec3> forces;
  md::EnergyTerms energy;
  md::NeighborList nbl;
};

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
                    SharedRunState& shared) const override {
    // Replicated state: identical on every rank (the global sum broadcasts
    // bitwise-identical forces, so trajectories never diverge across
    // ranks).
    RankProgram rp(sys, config, mw, shared);
    const ClassicShare share =
        rp.interleaved_share(rp.comm.rank(), rp.comm.size());
    std::vector<double> flat;

    // PME machinery: compute cost flows through the middleware's component
    // recorder, so FFT/spreading time lands in whatever component is
    // active.
    pme::ParallelPme ppme(config.pme, sys.box, mw, rp.charge_flops());

    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      rp.begin_step(perf::Component::kClassic);
      rp.replicated_list(step);
      result.pairs_in_list = rp.nbl.npairs();
      rp.classic_terms(share);
      if (config.use_pme) rp.pme_routine([&] { rp.slab_reciprocal(ppme); });

      // The all-to-all collective that ends the classic energy
      // calculation: global force reduction plus the (small) energy
      // reduction. CHARMM synchronizes before combining, which is where
      // load imbalance lands.
      rp.coherency_barrier();
      {
        perf::PhaseScope phase(rp.rec, "force_reduce");
        util::flatten(rp.forces, flat);
        mw.global_sum(flat.data(), flat.size());
        util::unflatten(flat, rp.forces);
        rp.sum_energy();
      }
      result.last_energy = rp.energy;
      rp.finish_step(rp.all_atoms());
    }
    result.position_checksum = rp.position_sum(rp.all_atoms());
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
                    SharedRunState& shared) const override {
    check_tag_budget(config);
    RankProgram rp(sys, config, mw, shared);
    const int p = rp.comm.size();
    const int me = rp.comm.rank();

    // Contiguous atom blocks, one per rank (front-loaded remainder, the
    // same partition shape the slab FFT uses). Bonded terms and excluded
    // pairs stay interleaved; the pair matrix goes by blocks.
    const auto natoms = static_cast<std::size_t>(sys.topo.natoms());
    const fft::SlabPartition blocks(natoms, p);
    std::vector<int> block_of(natoms);
    for (std::size_t i = 0; i < natoms; ++i) block_of[i] = blocks.owner(i);
    ClassicShare share = rp.interleaved_share(me, p);
    share.pairs = md::WorkSlice::pair_blocks(block_of, me, p);

    std::vector<double> flat;
    std::vector<double> scratch;
    pme::ParallelPme ppme(config.pme, sys.box, mw, rp.charge_flops());

    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      rp.begin_step(perf::Component::kClassic);
      rp.replicated_list(step);
      result.pairs_in_list = rp.nbl.npairs();
      rp.classic_terms(share);
      if (config.use_pme) rp.pme_routine([&] { rp.slab_reciprocal(ppme); });

      rp.coherency_barrier();
      util::flatten(rp.forces, flat);
      fold_expand(rp.comm, blocks, flat, scratch, step);
      util::unflatten(flat, rp.forces);
      {
        // The energy scalars still need a comm-wide reduction; every rank
        // issues it, so the collective tag counters stay aligned.
        perf::PhaseScope phase(rp.rec, "energy_reduce");
        rp.sum_energy();
      }
      result.last_energy = rp.energy;
      rp.finish_step(rp.all_atoms());
    }
    result.position_checksum = rp.position_sum(rp.all_atoms());
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
// m-slab FFT decomposition, through a group-restricted transport); the
// first q = p - m ranks run only the classic routine, sharded q ways. The
// two components — which the default schedule serializes through
// coherency barriers — overlap in virtual time within each step. A
// combine joins the halves: each group binomial-reduces its packed
// forces+energies to its group root, the PME root ships its total to
// rank 0, and a comm-wide broadcast replicates the sum so every rank
// integrates identical forces.
// --------------------------------------------------------------------------
class TaskPmeDecomposition final : public Decomposition {
 public:
  explicit TaskPmeDecomposition(const DecompSpec& spec) : spec_(spec) {}

  const char* name() const override { return "task"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw,
                    SharedRunState& shared) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // Degenerate split: nothing to decouple, run the reference program.
      return AtomReplicatedDecomposition{}.run(sys, config, mw, shared);
    }
    REPRO_REQUIRE(config.use_pme,
                  "task decoupling dedicates ranks to PME; enable use_pme "
                  "or pick another decomposition");
    check_tag_budget(config);
    const int m = resolved_pme_ranks(spec_, p);
    const int q = p - m;
    const int me = comm.rank();
    const bool is_pme = me >= q;
    RankProgram rp(sys, config, mw, shared);
    perf::RankRecorder& rec = rp.rec;
    std::vector<double> combined;
    std::vector<double> scratch;

    // The PME group's transport presents ranks [q, p) as a group of size
    // m; the slab FFT and spreading inside ParallelPme see only group
    // coordinates. Classic ranks never construct PME machinery, and share
    // the classic terms q ways.
    std::optional<GroupTransport> group;
    std::optional<pme::ParallelPme> ppme;
    ClassicShare share;
    if (is_pme) {
      group.emplace(comm, mpi::RankRange{q, m});
      ppme.emplace(config.pme, sys.box, *group, rp.charge_flops());
    } else {
      share = rp.interleaved_share(me, q);
    }

    constexpr std::size_t nterms = md::EnergyTerms::kCount;
    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      // Coherency barrier at energy entry, as in the default schedule —
      // the only synchronization until the two task groups join below.
      rp.begin_step(is_pme ? perf::Component::kPme
                           : perf::Component::kClassic);
      if (is_pme) {
        rp.slab_reciprocal(*ppme);
      } else {
        rp.replicated_list(step);
        result.pairs_in_list = rp.nbl.npairs();
        rp.classic_terms(share);
      }

      // Join point: the groups must combine their halves anyway, so the
      // coherency barrier here is where the classic/PME load imbalance
      // lands (as synchronization), mirroring the default schedule's
      // pre-reduction barrier.
      rp.coherency_barrier();

      // Pack forces + energy terms into one buffer so the combine is a
      // single message chain instead of two.
      util::flatten(rp.forces, combined);
      const std::array<double, nterms> earr = rp.energy.to_array();
      combined.insert(combined.end(), earr.begin(), earr.end());

      // Group-internal binomial reduce to the group root (rank 0 for the
      // classic group, rank q for the PME group) on a schedule tag, so
      // the groups' different programs cannot misalign the comm-wide
      // collective tag counters.
      if (is_pme) {
        perf::PhaseScope phase(rec, "pme_group_reduce");
        comm.reduce_sum(combined.data(), combined.size(), {q, m},
                        schedule_tag(step, 1));
      } else {
        perf::PhaseScope phase(rec, "classic_group_reduce");
        comm.reduce_sum(combined.data(), combined.size(), {0, q},
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
      util::unflatten(combined, rp.forces);
      std::array<double, nterms> total{};
      std::copy(combined.end() - nterms, combined.end(), total.begin());
      result.last_energy = md::EnergyTerms::from_array(total);
      rp.finish_step(rp.all_atoms());
    }
    result.position_checksum = rp.position_sum(rp.all_atoms());
    return result;
  }

 private:
  // The PME group's transport: ranks `range` as a group of their own.
  // transpose() is Comm's all-to-all over the range on tags from a
  // private sequence (kGroupTagBase..) instead of the comm-wide
  // collective counter, so the classic group never takes part.
  class GroupTransport final : public middleware::Transport {
   public:
    GroupTransport(mpi::Comm& comm, mpi::RankRange range)
        : comm_(comm), range_(range) {}

    int rank() const override { return comm_.rank() - range_.base; }
    int size() const override { return range_.size; }

    void transpose(const void* send,
                   const std::vector<std::size_t>& send_counts,
                   const std::vector<std::size_t>& send_displs, void* recv,
                   const std::vector<std::size_t>& recv_counts,
                   const std::vector<std::size_t>& recv_displs) override {
      perf::PhaseScope phase(comm_.recorder(), "pme_transpose");
      comm_.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                      recv_displs, range_, next_tag());
    }

   private:
    int next_tag() {
      REPRO_REQUIRE(kGroupTagBase + static_cast<int>(seq_) <
                        mpi::Comm::kCollectiveTagBase,
                    "group tag space exhausted; tags would alias");
      return kGroupTagBase + static_cast<int>(seq_++);
    }

    mpi::Comm& comm_;
    mpi::RankRange range_;
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
                    SharedRunState& shared) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // One domain is the whole box: run the reference program so the
      // sequential trajectory (and its goldens) is preserved to the byte.
      return AtomReplicatedDecomposition{}.run(sys, config, mw, shared);
    }
    check_tag_budget(config);
    RankProgram rp(sys, config, mw, shared);
    perf::RankRecorder& rec = rp.rec;
    const int me = comm.rank();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    // The run's cold start, built once before any rank started. Ranks
    // copy only what they mutate: the layout and the unit→rank map.
    REPRO_REQUIRE(shared.spatial_start().has_value(),
                  "shared run state was built for another decomposition "
                  "or rank count");
    const SpatialStart& start = *shared.spatial_start();
    SpatialLayout layout = start.layout;

    // Work-unit overdecomposition (ldb != off). The cell→unit grid is
    // frozen for the run; only the unit→rank map migrates, and every
    // later epoch's layout is derived from the map.
    const bool ldb_on = spec_.ldb != LdbPolicy::kOff;
    const std::optional<UnitGrid>& units = start.units;
    std::vector<int> unit_rank = start.unit_rank;
    std::uint64_t unit_map_hash = 0;
    std::size_t units_moved = 0;
    auto hash_unit_map = [&]() {
      unit_map_hash = util::hash_combine(
          unit_map_hash, util::fnv1a_bytes(unit_rank.data(),
                                           unit_rank.size() * sizeof(int)));
    };
    if (ldb_on) hash_unit_map();
    std::vector<int> nbrs =
        layout.rank_neighbors[static_cast<std::size_t>(me)];
    std::size_t nn = nbrs.size();

    // Only owned (pos+vel) and ghost (pos) rows are current.
    std::vector<Vec3>& pos = rp.pos;
    std::vector<Vec3>& vel = rp.vel;
    std::vector<Vec3>& forces = rp.forces;
    std::vector<Vec3> recip_forces;
    std::vector<double> flat;

    // Slab or pencil PME. Neither constructor communicates or charges
    // compute, so wrapping the slab machinery in an optional leaves the
    // slab path's schedule byte-identical to the unconditional build.
    const std::function<void(double)> charge_flops = rp.charge_flops();
    const bool pencil =
        config.use_pme && spec_.pme_mode == PmeMode::kPencil;
    std::optional<pme::ParallelPme> ppme;
    std::optional<pme::PencilPme> pencil_pme;
    if (pencil) {
      pencil_pme.emplace(config.pme, box, comm, start.pencil_grid.first,
                         start.pencil_grid.second, start.pme_regions,
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
    ClassicShare share;
    share.bonded = share.pairs = share.exclusions =
        md::WorkSlice::owned_atoms(owned_mask);
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
    auto measured_cum = [&](std::size_t i) {
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
      epoch_work =
          count_unit_work(units->nunits, topo, rp.nbl, unit_of_row);
      for (std::size_t i = 0; i < 3; ++i) measured_snap[i] = measured_cum(i);
      model_snap = model_cum;
    };

    // Step 0: the global epoch of the replicated initial positions,
    // taken from the cold start — no communication.
    auto adopt_global_epoch = [&]() {
      const SpatialEpoch& epoch = start.epoch;
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
      std::size_t owned_excl = 0;
      md::for_each_term(topo.excluded_pairs(), share.exclusions,
                        [&](const auto&) { ++owned_excl; });
      share.ewald_corr_seconds =
          cost.seconds_per_bonded_term * static_cast<double>(owned_excl);
    };

    // Wire records. An atom moving to a new owner travels as (id, pos,
    // vel) behind a record count; a row set known to both sides travels
    // as bare xyz triples.
    auto append_state = [&](std::vector<double>& b, int i) {
      const auto ui = static_cast<std::size_t>(i);
      b.insert(b.end(), {static_cast<double>(i), pos[ui].x, pos[ui].y,
                         pos[ui].z, vel[ui].x, vel[ui].y, vel[ui].z});
    };
    auto adopt_states = [&](std::vector<int>& keep) {
      const auto n = static_cast<std::size_t>(in[0]);
      for (std::size_t a = 0; a < n; ++a) {
        const double* r = in.data() + 1 + 7 * a;
        const int id = static_cast<int>(r[0]);
        const auto uid = static_cast<std::size_t>(id);
        pos[uid] = {r[1], r[2], r[3]};
        vel[uid] = {r[4], r[5], r[6]};
        keep.push_back(id);
      }
    };
    // Splits my owned atoms into those that stay (dest(i) < 0; returned)
    // and count-prefixed records in bufs[dest(i)] for the ones that leave.
    auto pack_departures = [&](std::vector<std::vector<double>>& bufs,
                               auto dest) {
      for (auto& b : bufs) b.assign(1, 0.0);
      std::vector<int> keep;
      keep.reserve(owned.size());
      for (int i : owned) {
        const int k = dest(i);
        if (k < 0) {
          keep.push_back(i);
        } else {
          append_state(bufs[static_cast<std::size_t>(k)], i);
        }
      }
      for (auto& b : bufs) b[0] = static_cast<double>((b.size() - 1) / 7);
      return keep;
    };
    auto append_rows = [](std::vector<double>& b, const std::vector<Vec3>& v,
                          const std::vector<int>& ids) {
      for (int i : ids) {
        const Vec3& r = v[static_cast<std::size_t>(i)];
        b.insert(b.end(), {r.x, r.y, r.z});
      }
    };
    auto read_positions = [&](const double* r, const std::vector<int>& ids) {
      for (std::size_t a = 0; a < ids.size(); ++a, r += 3) {
        pos[static_cast<std::size_t>(ids[a])] = {r[0], r[1], r[2]};
      }
    };

    // Atoms that left my cells move (id, pos, vel) to the new owner. An
    // atom drifting a whole cell width (≥ cutoff + skin) past its
    // neighbor shell within one epoch would need velocities far beyond
    // anything this integrator produces; assert rather than deadlock.
    auto migrate = [&](int step) {
      perf::PhaseScope phase(rec, "migrate");
      const int tag = schedule_tag(step, 0);
      std::vector<int> keep = pack_departures(out, [&](int i) {
        const int r = layout.cell_rank[static_cast<std::size_t>(
            layout.cell_of(pos[static_cast<std::size_t>(i)]))];
        if (r == me) return -1;
        const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), r);
        REPRO_REQUIRE(it != nbrs.end() && *it == r,
                      "atom migrated beyond the neighbor shell in one "
                      "epoch; the list rebuild interval is too long for "
                      "this timestep");
        return static_cast<int>(it - nbrs.begin());
      });
      migrated += owned.size() - keep.size();
      for (std::size_t k = 0; k < nn; ++k) {
        comm.send(nbrs[k], tag, out[k].data(),
                  out[k].size() * sizeof(double), /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        adopt_states(keep);
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
        b.assign(1, static_cast<double>(send_ids[k].size()));
        for (int i : send_ids[k]) b.push_back(static_cast<double>(i));
        append_rows(b, pos, send_ids[k]);
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
        read_positions(in.data() + 1 + n, recv_ids[k]);
      }
    };

    // One halo direction per step: rows out_ids[k] of `v` go to neighbor
    // k, and neighbor k's rows in_ids[k] fold into place via
    // fold(row, value). Both sides know the epoch's counts, so payloads
    // are raw coordinates and empty lists send nothing.
    auto halo = [&](const char* phase_name, int tag,
                    const std::vector<std::vector<int>>& out_ids,
                    const std::vector<std::vector<int>>& in_ids,
                    const std::vector<Vec3>& v, auto fold) {
      perf::PhaseScope phase(rec, phase_name);
      for (std::size_t k = 0; k < nn; ++k) {
        if (out_ids[k].empty()) continue;
        auto& b = out[k];
        b.clear();
        append_rows(b, v, out_ids[k]);
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        if (in_ids[k].empty()) continue;
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        for (std::size_t a = 0; a < in_ids[k].size(); ++a) {
          const double* r = in.data() + 3 * a;
          fold(static_cast<std::size_t>(in_ids[k][a]), Vec3{r[0], r[1], r[2]});
        }
      }
    };
    // Position halo: my border atoms out, my ghosts in.
    auto halo_positions = [&](int step) {
      halo("halo_exchange", schedule_tag(step, 2), send_ids, recv_ids, pos,
           [&](std::size_t i, const Vec3& r) { pos[i] = r; });
    };
    // Reverse halo: partial forces accumulated on my ghost rows go home
    // (byte-symmetric with the position halo), and the partials my
    // neighbors held for my atoms fold into my owned rows.
    auto halo_forces = [&](int step) {
      halo("halo_fold", schedule_tag(step, 3), recv_ids, send_ids, forces,
           [&](std::size_t i, const Vec3& f) { forces[i] += f; });
    };

    // PME wants every position on every rank (slab spreading): a pairwise
    // all-to-all gather of (count, ids, positions). Every rank sends to
    // every other — owned sets are unknown remotely, and idle ranks must
    // still participate so the schedule cannot deadlock.
    auto gather_positions = [&](int step) {
      perf::PhaseScope phase(rec, "pme_gather");
      const int tag = schedule_tag(step, 4);
      auto& b = gather_buf;
      b.assign(1, static_cast<double>(owned.size()));
      for (int i : owned) b.push_back(static_cast<double>(i));
      append_rows(b, pos, owned);
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
      for (std::size_t i = 0; i < 3; ++i) {
        measured += measured_cum(i) - measured_snap[i];
        model += model_cum[i] - model_snap[i];
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
      {
        perf::PhaseScope phase(rec, "unit_handoff");
        const int tag = schedule_tag(step, 11);
        std::vector<int> my_moved;
        for (int u : moved) {
          if (unit_rank[static_cast<std::size_t>(u)] == me) my_moved.push_back(u);
        }
        std::vector<std::vector<double>> unit_out(my_moved.size());
        keep = pack_departures(unit_out, [&](int i) {
          const int u = units->cell_unit[static_cast<std::size_t>(
              layout.cell_of(pos[static_cast<std::size_t>(i)]))];
          if (new_map[static_cast<std::size_t>(u)] == me) return -1;
          const auto it =
              std::lower_bound(my_moved.begin(), my_moved.end(), u);
          REPRO_REQUIRE(it != my_moved.end() && *it == u,
                        "owned atom in a unit this rank does not own");
          return static_cast<int>(it - my_moved.begin());
        });
        for (std::size_t k = 0; k < my_moved.size(); ++k) {
          const auto& b = unit_out[k];
          comm.send(new_map[static_cast<std::size_t>(my_moved[k])], tag,
                    b.data(), b.size() * sizeof(double), /*exchange=*/true);
        }
        for (int u : moved) {
          if (new_map[static_cast<std::size_t>(u)] != me) continue;
          comm.recv(unit_rank[static_cast<std::size_t>(u)], tag, in.data(),
                    in.size() * sizeof(double));
          adopt_states(keep);
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
        pencil_pme->set_regions(
            make_pme_regions(layout, config.pme, config.skin));
      }
    };

    RankRunResult result;
    std::size_t local_pairs = 0;
    for (int step = 0; step < config.nsteps; ++step) {
      rp.begin_step(perf::Component::kClassic);
      if (step % config.list_rebuild_interval == 0) {
        if (step == 0) {
          adopt_global_epoch();
        } else {
          migrate(step);
          if (ldb_on) rebalance(step);
          exchange_ghosts(step);
        }
        refresh_derived();
        rp.build_list([&] {
          rp.nbl.build_subset(topo, box, pos, candidates, owned_mask);
        });
        local_pairs = rp.nbl.npairs();
        if (ldb_on) begin_measurement();
      }

      halo_positions(step);
      const std::array<double, 3> sec = rp.classic_terms(share);
      for (std::size_t i = 0; i < sec.size(); ++i) model_cum[i] += sec[i];

      if (config.use_pme) {
        rp.pme_routine([&] {
          if (pencil) {
            // Pencil PME: charges are spread locally and exchanged as
            // region plane blocks, the FFT transposes within pencil rows/
            // columns, and owned-atom forces come back complete — no
            // position gather and no reciprocal-force allreduce.
            perf::PhaseScope phase(rec, "pme_recip");
            rp.energy.ewald_recip += pencil_pme->reciprocal(
                topo, pos, owned, forces, schedule_tag(step, 5));
            return;
          }
          gather_positions(step);
          recip_forces.assign(natoms, Vec3{});
          {
            perf::PhaseScope phase(rec, "pme_recip");
            rp.energy.ewald_recip +=
                ppme->reciprocal(topo, pos, recip_forces);
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
        });
      }

      halo_forces(step);
      {
        perf::PhaseScope phase(rec, "energy_reduce");
        rp.sum_energy();
      }
      result.last_energy = rp.energy;
      rp.finish_step(owned);
    }

    // Distributed state needs one last reduction so every rank reports
    // the identical totals run_experiment asserts on: the coordinate
    // checksum over owners, the global pair count, and the migrations.
    {
      rec.set_component(perf::Component::kOther);
      perf::PhaseScope phase(rec, "result_reduce");
      double tail[3] = {rp.position_sum(owned),
                        static_cast<double>(local_pairs),
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

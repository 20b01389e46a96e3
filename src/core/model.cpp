#include "core/model.hpp"

#include <algorithm>
#include <cmath>

#include "charmm/ldb.hpp"
#include "charmm/spatial.hpp"
#include "fft/parallel_fft.hpp"
#include "md/neighbor.hpp"
#include "util/error.hpp"

namespace repro::core {

double predict_message_seconds(const net::NetworkParams& params,
                               std::size_t bytes, bool exchange) {
  const double packets = bytes == 0
                             ? 1.0
                             : std::ceil(static_cast<double>(bytes) /
                                         static_cast<double>(params.mtu));
  double wire = static_cast<double>(bytes) / params.bandwidth;
  if (exchange) wire *= params.duplex_exchange_factor;
  return params.send_overhead + packets * params.packet_cost_send + wire +
         params.latency + params.recv_overhead +
         packets * params.packet_cost_recv +
         static_cast<double>(bytes) / params.copy_bandwidth;
}

namespace {

double ceil_log2(int p) {
  return static_cast<double>(static_cast<int>(std::ceil(std::log2(p))));
}

// Exact payload bytes one slab transpose moves across the network among
// `p` ranks: the whole grid minus the diagonal blocks that stay local,
// using the same front-loaded partition the FFT builds.
double transpose_bytes(const pme::PmeParams& grid, int p) {
  const fft::SlabPartition xpart(grid.nx, p);
  const fft::SlabPartition zpart(grid.nz, p);
  double local = 0.0;
  for (int r = 0; r < p; ++r) {
    local += static_cast<double>(xpart.count(r)) *
             static_cast<double>(zpart.count(r));
  }
  const double total = static_cast<double>(grid.nx * grid.nz);
  return (total - local) * static_cast<double>(grid.ny) *
         16.0;  // complex<double>
}

// The per-round block the existing atom model charges on the transpose
// critical path (kept as-is: the base overload's times must not change).
std::size_t transpose_round_block_bytes(const pme::PmeParams& grid, int p) {
  const double block_elems = (static_cast<double>(grid.nx) / p) *
                             static_cast<double>(grid.ny) *
                             (static_cast<double>(grid.nz) / p);
  return static_cast<std::size_t>(block_elems * 16.0);
}

void predict_atom(const net::NetworkParams& params, int p, int natoms,
                  const pme::PmeParams& grid, OverheadPrediction& out) {
  const double log2p = ceil_log2(p);
  const std::size_t force_bytes = static_cast<std::size_t>(natoms) * 3 * 8;
  const std::size_t energy_bytes = 9 * 8;

  // Classic: the force reduction (3N doubles) as MPICH-1 reduce+bcast —
  // 2 log2(p) sequential full-vector hops on the critical path — plus the
  // small energy reduction. Cluster-wide, each binomial tree carries p-1
  // full-vector messages, and the allreduce runs two trees.
  out.classic_comm_per_step =
      2.0 * log2p * predict_message_seconds(params, force_bytes) +
      2.0 * log2p * predict_message_seconds(params, energy_bytes);
  out.classic_messages_per_step = 4.0 * (p - 1);
  out.classic_bytes_per_step =
      2.0 * (p - 1) * static_cast<double>(force_bytes + energy_bytes);

  // PME: two all-to-all personalized transposes. Pairwise exchange runs
  // p-1 sequential rounds per transpose; each round moves one block of
  // roughly (nx/p) * ny * (nz/p) complex values in each direction
  // concurrently (exchange traffic).
  out.pme_comm_per_step =
      2.0 * (p - 1) *
      predict_message_seconds(params, transpose_round_block_bytes(grid, p),
                              /*exchange=*/true);
  out.pme_messages_per_step = 2.0 * p * (p - 1);
  out.pme_bytes_per_step = 2.0 * transpose_bytes(grid, p);

  // Three dissemination barriers per step, log2(p) zero-byte rounds each.
  out.sync_per_step = 3.0 * log2p * predict_message_seconds(params, 0);
}

void predict_force(const net::NetworkParams& params, int p, int natoms,
                   const pme::PmeParams& grid, OverheadPrediction& out) {
  // PME and the three coherency barriers are the atom schedule's; only the
  // classic reduction changes.
  predict_atom(params, p, natoms, grid, out);
  const double log2p = ceil_log2(p);
  const std::size_t force_bytes = static_cast<std::size_t>(natoms) * 3 * 8;
  const std::size_t energy_bytes = 9 * 8;

  // Fold + expand: each rank issues p-1 block sends and p-1 block
  // receives per half, all blocks ~24N/p bytes, rounds overlapping across
  // ranks (exchange traffic) — so the critical path is 2 (p-1) block
  // messages instead of the allreduce's 2 log2(p) full-vector hops. The
  // energy scalars still ride a comm-wide allreduce.
  const auto fold_block_bytes =
      static_cast<std::size_t>(static_cast<double>(force_bytes) / p);
  out.classic_comm_per_step =
      2.0 * (p - 1) *
          predict_message_seconds(params, fold_block_bytes,
                                  /*exchange=*/true) +
      2.0 * log2p * predict_message_seconds(params, energy_bytes);
  // Cluster-wide: fold ships every non-owned block once (24N (p-1) bytes),
  // expand ships every owned total to the p-1 others (same volume again).
  out.classic_messages_per_step =
      2.0 * p * (p - 1) + 2.0 * (p - 1);
  out.classic_bytes_per_step =
      2.0 * static_cast<double>(force_bytes) * (p - 1) +
      2.0 * (p - 1) * static_cast<double>(energy_bytes);
}

void predict_task(const net::NetworkParams& params, int p, int natoms,
                  const pme::PmeParams& grid,
                  const charmm::DecompSpec& decomp,
                  OverheadPrediction& out) {
  const int m = charmm::resolved_pme_ranks(decomp, p);
  const int q = p - m;
  // The combine ships forces and energy terms packed together.
  const std::size_t combined_bytes =
      (static_cast<std::size_t>(natoms) * 3 + 9) * 8;

  // Classic group: binomial reduce over q ranks, the root exchange hop
  // from the PME root, and the comm-wide result broadcast.
  out.classic_comm_per_step =
      (ceil_log2(q) + 1.0 + ceil_log2(p)) *
      predict_message_seconds(params, combined_bytes);
  out.classic_messages_per_step =
      static_cast<double>((q - 1) + 1 + (p - 1));
  out.classic_bytes_per_step =
      static_cast<double>((q - 1) + 1 + (p - 1)) *
      static_cast<double>(combined_bytes);

  // PME group: the two transposes now run among m ranks (bigger blocks,
  // fewer rounds), plus the group's own binomial reduce of the combined
  // vector.
  const double transpose_time =
      m == 1 ? 0.0
             : 2.0 * (m - 1) *
                   predict_message_seconds(
                       params, transpose_round_block_bytes(grid, m),
                       /*exchange=*/true);
  out.pme_comm_per_step =
      transpose_time +
      ceil_log2(m) * predict_message_seconds(params, combined_bytes);
  out.pme_messages_per_step = 2.0 * m * (m - 1) + (m - 1);
  out.pme_bytes_per_step =
      2.0 * transpose_bytes(grid, m) +
      static_cast<double>(m - 1) * static_cast<double>(combined_bytes);

  // Two comm-wide barriers per step: energy entry and the group join.
  out.sync_per_step = 2.0 * ceil_log2(p) * predict_message_seconds(params, 0);
}

// One spatial epoch's schedule, derived from the layout + epoch the
// simulator freezes between rebuilds: every count below is exact (and
// pinned in tests) for the steps that epoch covers.
void predict_spatial_epoch(const net::NetworkParams& params, int p,
                           const sysbuild::BuiltSystem& sys,
                           const charmm::CharmmConfig& config,
                           const charmm::SpatialLayout& layout,
                           const charmm::SpatialEpoch& epoch,
                           OverheadPrediction& out) {
  const double log2p = ceil_log2(p);
  const auto natoms = static_cast<double>(sys.topo.natoms());
  const std::size_t energy_bytes = 9 * 8;

  // Directed halo schedule: each nonzero send list is one position-halo
  // message out and one byte-symmetric force-halo message back, every
  // step. Empty lists are skipped by both sides.
  double halo_messages = 0.0;
  double halo_bytes = 0.0;
  double max_rank_halo_seconds = 0.0;
  for (int r = 0; r < p; ++r) {
    double rank_seconds = 0.0;
    for (const auto& ids : epoch.send[static_cast<std::size_t>(r)]) {
      if (ids.empty()) continue;
      const std::size_t bytes = ids.size() * 24;
      halo_messages += 1.0;
      halo_bytes += static_cast<double>(bytes);
      rank_seconds +=
          predict_message_seconds(params, bytes, /*exchange=*/true);
    }
    max_rank_halo_seconds = std::max(max_rank_halo_seconds, rank_seconds);
  }

  // Classic: both halos plus the 9-double energy allreduce.
  out.classic_comm_per_step =
      2.0 * max_rank_halo_seconds +
      2.0 * log2p * predict_message_seconds(params, energy_bytes);
  out.classic_messages_per_step = 2.0 * halo_messages + 2.0 * (p - 1);
  out.classic_bytes_per_step =
      2.0 * halo_bytes +
      2.0 * (p - 1) * static_cast<double>(energy_bytes);

  if (config.use_pme &&
      config.decomp.pme_mode == charmm::PmeMode::kPencil) {
    // Pencil PME: no gather, no reciprocal-force allreduce. The traffic
    // is (a) the charge/potential plane exchange between spread regions
    // and stage-1 pencils, and (b) the four grouped pairwise transposes
    // inside the forward/backward pencil FFT. Regions and the pencil
    // grid depend only on the layout, so every count is exact.
    const auto [py, pz] = charmm::resolved_pencil_grid(
        config.decomp, p, config.pme.ny, config.pme.nz);
    const fft::PencilGrid pgrid(config.pme.nx, config.pme.ny,
                                config.pme.nz, py, pz);
    const std::vector<pme::GridRegion> regions =
        charmm::make_pme_regions(layout, config.pme, config.skin);

    // Plane exchange: rank r ships the overlap of its region with each
    // stage-1 pencil (y-range x z-range, full x) as one eager message;
    // the potential comes back over the identical geometry.
    double plane_messages = 0.0;
    double plane_bytes = 0.0;
    double max_rank_plane_seconds = 0.0;
    for (int r = 0; r < p; ++r) {
      const pme::GridRegion& rr = regions[static_cast<std::size_t>(r)];
      double rank_seconds = 0.0;
      if (!rr.empty()) {
        for (int q = 0; q < p; ++q) {
          if (q == r || !pgrid.participates(q)) continue;
          const int qy = pgrid.ycoord(q);
          const int qz = pgrid.zcoord(q);
          const std::size_t elems =
              rr.cx *
              pme::wrapped_overlap(rr.y0, rr.cy, config.pme.ny,
                                   pgrid.ypart.begin(qy),
                                   pgrid.ypart.end(qy)) *
              pme::wrapped_overlap(rr.z0, rr.cz, config.pme.nz,
                                   pgrid.zpart.begin(qz),
                                   pgrid.zpart.end(qz));
          if (elems == 0) continue;
          plane_messages += 1.0;
          plane_bytes += static_cast<double>(elems) * 8.0;
          rank_seconds += predict_message_seconds(params, elems * 8);
        }
      }
      max_rank_plane_seconds =
          std::max(max_rank_plane_seconds, rank_seconds);
    }

    // Grouped pairwise transposes: X<->Y runs among the py ranks of each
    // z-group, Y<->Z among the pz ranks of each y-group; each ordered
    // pair with a nonzero block is one exchange message per direction.
    double fft_messages = 0.0;
    double fft_bytes = 0.0;
    for (int zc = 0; zc < pz; ++zc) {
      for (int a = 0; a < py; ++a) {
        for (int b = 0; b < py; ++b) {
          if (a == b) continue;
          const std::size_t elems = pgrid.ypart.count(a) *
                                    pgrid.xpart.count(b) *
                                    pgrid.zpart.count(zc);
          if (elems == 0) continue;
          fft_messages += 2.0;  // forward X->Y and backward Y->X
          fft_bytes += 2.0 * static_cast<double>(elems) * 16.0;
        }
      }
    }
    for (int yc = 0; yc < py; ++yc) {
      for (int c = 0; c < pz; ++c) {
        for (int d = 0; d < pz; ++d) {
          if (c == d) continue;
          const std::size_t elems = pgrid.xpart.count(yc) *
                                    pgrid.y2part.count(d) *
                                    pgrid.zpart.count(c);
          if (elems == 0) continue;
          fft_messages += 2.0;  // forward Y->Z and backward Z->Y
          fft_bytes += 2.0 * static_cast<double>(elems) * 16.0;
        }
      }
    }

    // Critical path: the heaviest rank's plane sends (both directions)
    // plus the sequential pairwise rounds of the four transposes, each
    // round moving one typical block concurrently in both directions.
    const double nx = static_cast<double>(config.pme.nx);
    const double ny = static_cast<double>(config.pme.ny);
    const double nz = static_cast<double>(config.pme.nz);
    const auto xy_block = static_cast<std::size_t>(
        (nx / py) * (ny / py) * (nz / pz) * 16.0);
    const auto yz_block = static_cast<std::size_t>(
        (nx / py) * (ny / pz) * (nz / pz) * 16.0);
    out.pme_comm_per_step =
        2.0 * max_rank_plane_seconds +
        2.0 * (py - 1) *
            predict_message_seconds(params, xy_block, /*exchange=*/true) +
        2.0 * (pz - 1) *
            predict_message_seconds(params, yz_block, /*exchange=*/true);
    out.pme_messages_per_step = 2.0 * plane_messages + fft_messages;
    out.pme_bytes_per_step = 2.0 * plane_bytes + fft_bytes;
  } else if (config.use_pme) {
    // Position gather: every rank ships (count, ids, positions) of its
    // owned set to every other rank — (1 + 4 n_r) doubles — so the
    // cluster-wide volume telescopes to (p-1)(8p + 32N) regardless of
    // how the heuristic balanced the domains.
    std::size_t max_owned = 0;
    for (const auto& ids : epoch.owned) {
      max_owned = std::max(max_owned, ids.size());
    }
    const double gather_bytes =
        static_cast<double>(p - 1) * (8.0 * p + 32.0 * natoms);
    // Reciprocal forces ride one full-vector allreduce (3N doubles), and
    // the slab FFT's two transposes are unchanged from the atom model.
    const std::size_t force_bytes =
        static_cast<std::size_t>(natoms) * 3 * 8;
    out.pme_comm_per_step =
        static_cast<double>(p - 1) *
            predict_message_seconds(params, 8 + 32 * max_owned,
                                    /*exchange=*/true) +
        2.0 * log2p * predict_message_seconds(params, force_bytes) +
        2.0 * (p - 1) *
            predict_message_seconds(params,
                                    transpose_round_block_bytes(
                                        config.pme, p),
                                    /*exchange=*/true);
    out.pme_messages_per_step = static_cast<double>(p) * (p - 1) +
                                2.0 * (p - 1) + 2.0 * p * (p - 1);
    out.pme_bytes_per_step = gather_bytes +
                             2.0 * (p - 1) *
                                 static_cast<double>(force_bytes) +
                             2.0 * transpose_bytes(config.pme, p);
  }

  // Barriers: energy entry every step, plus the pre-PME coherency point.
  out.sync_per_step = (config.use_pme ? 2.0 : 1.0) * log2p *
                      predict_message_seconds(params, 0);
}

void predict_spatial(const net::NetworkParams& params, int p,
                     const sysbuild::BuiltSystem& sys,
                     const charmm::CharmmConfig& config,
                     OverheadPrediction& out) {
  const charmm::SpatialLayout base = charmm::make_spatial_layout(
      config.decomp, sys.box, config.cutoff + config.skin, p,
      &sys.positions);
  if (config.decomp.ldb == charmm::LdbPolicy::kOff) {
    const charmm::SpatialEpoch epoch =
        charmm::make_global_epoch(base, sys.positions);
    predict_spatial_epoch(params, p, sys, config, base, epoch, out);
    return;
  }

  // ldb != off: replay the balancer's zero-drift trajectory — cold-start
  // map plus one rebalance per rebuild after step 0 — and sum the whole
  // run's schedule epoch by epoch. Zero drift keeps atoms in their
  // startup cells, so every epoch's halo schedule and every rebuild
  // event is fully determined by the replayed maps.
  const charmm::UnitGrid grid = charmm::make_unit_grid(
      base, charmm::resolved_units(config.decomp, p, base.ncells()),
      sys.positions);
  md::NeighborList nbl(config.cutoff, config.skin);
  nbl.build(sys.topo, sys.box, sys.positions);
  const int nrebalances =
      (config.nsteps - 1) / config.list_rebuild_interval;
  const std::vector<std::vector<int>> maps = charmm::replay_unit_maps(
      base, grid, sys.topo, nbl, sys.positions, config.cost,
      config.use_pme, config.decomp.ldb, p, nrebalances);

  std::vector<double> unit_atoms(static_cast<std::size_t>(grid.nunits),
                                 0.0);
  for (const util::Vec3& r : sys.positions) {
    unit_atoms[static_cast<std::size_t>(
        grid.cell_unit[static_cast<std::size_t>(base.cell_of(r))])] += 1.0;
  }

  charmm::SpatialLayout prev_layout;
  for (int k = 0; k <= nrebalances; ++k) {
    const charmm::SpatialLayout layout = charmm::layout_from_units(
        base, grid, maps[static_cast<std::size_t>(k)]);
    const charmm::SpatialEpoch epoch =
        charmm::make_global_epoch(layout, sys.positions);
    OverheadPrediction ep;
    predict_spatial_epoch(params, p, sys, config, layout, epoch, ep);
    if (k == 0) {
      // The per-step times and counts keep their meaning: the cold-start
      // epoch's schedule (exact for runs inside the first epoch).
      out = ep;
    }
    const int first = k * config.list_rebuild_interval;
    const int last = std::min((k + 1) * config.list_rebuild_interval,
                              config.nsteps);
    out.run_messages += static_cast<double>(last - first) *
                        ep.messages_per_step();
    out.run_bytes += static_cast<double>(last - first) *
                     ep.bytes_per_step();

    if (k > 0) {
      // Rebuild-event traffic at step `first`, in schedule order.
      double ev_messages = 0.0;
      double ev_bytes = 0.0;
      // Drift migration under the old map: empty payloads, one 8-byte
      // count to every old-layout neighbor.
      for (int r = 0; r < p; ++r) {
        const double nn = static_cast<double>(
            prev_layout.rank_neighbors[static_cast<std::size_t>(r)].size());
        ev_messages += nn;
        ev_bytes += nn * 8.0;
      }
      // ldb_collect: allreduce of K unit costs + p rank speeds over the
      // MPI middleware's binomial reduce + broadcast.
      ev_messages += 2.0 * (p - 1);
      ev_bytes += 2.0 * (p - 1) * 8.0 *
                  static_cast<double>(grid.nunits + p);
      // Unit handoff: the old owner of each moved unit ships
      // [count, (id, pos, vel) x n_u] to the new owner.
      for (int u = 0; u < grid.nunits; ++u) {
        const auto su = static_cast<std::size_t>(u);
        if (maps[static_cast<std::size_t>(k)][su] ==
            maps[static_cast<std::size_t>(k - 1)][su]) {
          continue;
        }
        out.units_moved += 1.0;
        ev_messages += 1.0;
        ev_bytes += 8.0 * (1.0 + 7.0 * unit_atoms[su]);
      }
      // Ghost renegotiation under the new map: every rank sends
      // (count, ids, positions) to every new-layout neighbor, empty or
      // not.
      for (int r = 0; r < p; ++r) {
        const auto& sends = epoch.send[static_cast<std::size_t>(r)];
        for (const auto& ids : sends) {
          ev_messages += 1.0;
          ev_bytes += 8.0 * (1.0 + 4.0 * static_cast<double>(ids.size()));
        }
      }
      out.rebalance_messages += ev_messages;
      out.rebalance_bytes += ev_bytes;
      out.run_messages += ev_messages;
      out.run_bytes += ev_bytes;
    }
    prev_layout = layout;
  }
}

}  // namespace

OverheadPrediction predict_step_overheads(const net::NetworkParams& params,
                                          int nprocs, int natoms,
                                          const pme::PmeParams& grid) {
  return predict_step_overheads(params, nprocs, natoms, grid,
                                charmm::DecompSpec{});
}

OverheadPrediction predict_step_overheads(const net::NetworkParams& params,
                                          int nprocs, int natoms,
                                          const pme::PmeParams& grid,
                                          const charmm::DecompSpec& decomp) {
  REPRO_REQUIRE(nprocs >= 1, "prediction needs at least one processor");
  OverheadPrediction out;
  if (nprocs == 1) return out;

  switch (decomp.kind) {
    case charmm::DecompKind::kAtomReplicated:
      predict_atom(params, nprocs, natoms, grid, out);
      return out;
    case charmm::DecompKind::kForce:
      predict_force(params, nprocs, natoms, grid, out);
      return out;
    case charmm::DecompKind::kTaskPme:
      predict_task(params, nprocs, natoms, grid, decomp, out);
      return out;
    case charmm::DecompKind::kSpatial:
      util::fail(
          "spatial prediction needs the built system (halo volumes are the "
          "border-cell populations); use the system-aware "
          "predict_step_overheads overload",
          __FILE__, __LINE__);
  }
  REPRO_UNREACHABLE("bad decomposition kind");
}

OverheadPrediction predict_step_overheads(const net::NetworkParams& params,
                                          int nprocs,
                                          const sysbuild::BuiltSystem& sys,
                                          const charmm::CharmmConfig& config) {
  REPRO_REQUIRE(nprocs >= 1, "prediction needs at least one processor");
  if (config.decomp.kind != charmm::DecompKind::kSpatial) {
    return predict_step_overheads(params, nprocs, sys.topo.natoms(),
                                  config.pme, config.decomp);
  }
  OverheadPrediction out;
  if (nprocs == 1) return out;
  predict_spatial(params, nprocs, sys, config, out);
  return out;
}

}  // namespace repro::core

// Configuration validation for the CHARMM workloads.
//
// Both config structs accept arbitrary values; these checks reject the
// combinations the physics or the decompositions cannot meaningfully run,
// so a bad CLI flag fails with a message instead of a NaN trajectory or a
// wedged schedule. Wired into run_experiment and the Simulation
// constructor; error paths are covered in tests the same way
// net::validate_params is.
#include <algorithm>
#include <cstddef>

#include "charmm/app.hpp"
#include "charmm/simulation.hpp"
#include "util/error.hpp"

namespace repro::charmm {

void validate_config(const SimulationConfig& config) {
  REPRO_REQUIRE(config.dt_ps > 0.0, "time step must be positive");
  REPRO_REQUIRE(config.cutoff > 0.0, "cutoff must be positive");
  REPRO_REQUIRE(config.switch_on > 0.0, "switch_on must be positive");
  REPRO_REQUIRE(config.switch_on < config.cutoff,
                "switching must start inside the cutoff (switch_on < cutoff)");
  REPRO_REQUIRE(config.skin > 0.0, "neighbor-list skin must be positive");
  REPRO_REQUIRE(config.list_rebuild_interval >= 1,
                "list rebuild interval must be at least 1");
  if (config.use_pme) {
    const pme::PmeParams& grid = config.pme;
    REPRO_REQUIRE(grid.beta > 0.0, "Ewald beta must be positive");
    REPRO_REQUIRE(grid.order >= 2, "PME spline order must be at least 2");
    const std::size_t min_dim = std::min({grid.nx, grid.ny, grid.nz});
    REPRO_REQUIRE(min_dim >= static_cast<std::size_t>(grid.order),
                  "PME grid is degenerate: every dimension must hold at "
                  "least one spline support (dim >= order)");
  }
}

void validate_config(const CharmmConfig& config) {
  REPRO_REQUIRE(config.nsteps > 0, "nsteps must be positive");
  REPRO_REQUIRE(config.temperature_k >= 0.0,
                "temperature must be non-negative");
  validate_config(static_cast<const SimulationConfig&>(config));
  REPRO_REQUIRE(config.decomp.kind != DecompKind::kTaskPme ||
                    config.use_pme,
                "task decoupling dedicates ranks to PME; enable use_pme or "
                "pick another decomposition");
  REPRO_REQUIRE(config.decomp.pme_ranks >= 0,
                "pme_ranks must be non-negative");
  const DecompSpec& d = config.decomp;
  REPRO_REQUIRE(d.grid_x >= 0 && d.grid_y >= 0 && d.grid_z >= 0,
                "spatial grid dimensions must be non-negative");
  const bool any_grid = d.grid_x > 0 || d.grid_y > 0 || d.grid_z > 0;
  const bool all_grid = d.grid_x > 0 && d.grid_y > 0 && d.grid_z > 0;
  REPRO_REQUIRE(!any_grid || all_grid,
                "spatial grid override must set all three dimensions");
  REPRO_REQUIRE(d.pencil_y >= 0 && d.pencil_z >= 0,
                "pencil grid dimensions must be non-negative");
  REPRO_REQUIRE((d.pencil_y > 0) == (d.pencil_z > 0),
                "pencil grid override must set both dimensions");
  if (d.pme_mode == PmeMode::kPencil) {
    REPRO_REQUIRE(d.kind == DecompKind::kSpatial,
                  "pencil PME is an option of the spatial decomposition");
    REPRO_REQUIRE(config.use_pme,
                  "pme=pencil decomposes the PME mesh; enable use_pme or "
                  "drop the pencil option");
  }
  REPRO_REQUIRE(d.ldb == LdbPolicy::kOff || d.kind == DecompKind::kSpatial,
                "load balancing (ldb=) migrates spatial work units; it "
                "requires the spatial decomposition");
  REPRO_REQUIRE(d.units >= 0, "work-unit count must be non-negative");
  REPRO_REQUIRE(d.units == 0 || d.ldb != LdbPolicy::kOff,
                "units= overdecomposes for the load balancer; it requires "
                "ldb=greedy or ldb=refine");
  if (config.use_pme && d.pencil_y > 0) {
    REPRO_REQUIRE(static_cast<std::size_t>(d.pencil_y) <= config.pme.ny,
                  "pencil grid dimension Py exceeds the PME grid's y planes");
    REPRO_REQUIRE(static_cast<std::size_t>(d.pencil_z) <= config.pme.nz,
                  "pencil grid dimension Pz exceeds the PME grid's z planes");
  }
}

}  // namespace repro::charmm

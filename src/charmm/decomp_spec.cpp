#include "charmm/decomp_spec.hpp"

#include <algorithm>
#include <span>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::charmm {

namespace {

// Rank, unit and grid counts: at least one, at most a billion.
constexpr int kMaxCount = 1000000000;

[[noreturn]] void refuse(const std::string& why, const std::string& text) {
  throw util::Error("decomposition spec: " + why + ": " + text);
}

}  // namespace

const char* to_string(DecompKind kind) {
  switch (kind) {
    case DecompKind::kAtomReplicated:
      return "atom";
    case DecompKind::kForce:
      return "force";
    case DecompKind::kTaskPme:
      return "task";
    case DecompKind::kSpatial:
      return "spatial";
  }
  return "?";
}

const char* to_string(LdbPolicy policy) {
  switch (policy) {
    case LdbPolicy::kOff:
      return "off";
    case LdbPolicy::kGreedy:
      return "greedy";
    case LdbPolicy::kRefine:
      return "refine";
  }
  return "?";
}

std::string to_string(const DecompSpec& spec) {
  std::string out = to_string(spec.kind);
  if (spec.kind == DecompKind::kTaskPme && spec.pme_ranks > 0) {
    out += ":pme=" + std::to_string(spec.pme_ranks);
  }
  if (spec.kind == DecompKind::kSpatial) {
    if (spec.grid_x > 0) {
      out += ":grid=" + std::to_string(spec.grid_x) + "x" +
             std::to_string(spec.grid_y) + "x" + std::to_string(spec.grid_z);
    }
    if (spec.pme_mode == PmeMode::kPencil) {
      out += ":pme=pencil";
      if (spec.pencil_y > 0) {
        out += ":grid=" + std::to_string(spec.pencil_y) + "x" +
               std::to_string(spec.pencil_z);
      }
    }
    if (spec.ldb != LdbPolicy::kOff) {
      out += ":ldb=";
      out += to_string(spec.ldb);
      if (spec.units > 0) {
        out += ",units=" + std::to_string(spec.units);
      }
    }
  }
  return out;
}

DecompSpec parse_decomp_spec(const std::string& text) {
  DecompSpec spec;
  if (text.empty() || text == "replicated") return spec;
  const std::vector<std::string_view> fields = util::split(text, ':');
  const std::string_view kind = fields[0];
  const std::span<const std::string_view> options =
      std::span(fields).subspan(1);
  if (kind == "atom" && options.empty()) return spec;
  if (kind == "force" && options.empty()) {
    spec.kind = DecompKind::kForce;
    return spec;
  }
  if (kind == "task") {
    spec.kind = DecompKind::kTaskPme;
    if (options.empty()) return spec;
    const util::KeyValue pme = util::key_value(options[0]);
    if (options.size() > 1 || pme.key != "pme" || !pme.has_value) {
      refuse("bad task option (expected task:pme=N)", text);
    }
    spec.pme_ranks =
        util::int_field("decomposition", "PME rank count", pme.value, 1,
                        kMaxCount);
    return spec;
  }
  if (kind != "spatial") {
    if (text.find(":ldb=") != std::string::npos) {
      refuse("ldb= only applies to the spatial decomposition (the "
             "replicated strategies have no migratable units)",
             text);
    }
    refuse("unknown decomposition (expected atom, force, task[:pme=N], or "
           "spatial[:grid=AxBxC][:pme=pencil[:grid=PyxPz]]"
           "[:ldb=greedy|refine|off[,units=K]])",
           text);
  }
  spec.kind = DecompKind::kSpatial;
  // "grid=" means the cell grid until "pme=pencil" has been seen, after
  // which it means the pencil process grid — mirroring how to_string
  // prints them.
  bool after_pencil = false;
  bool seen_ldb = false;
  for (const std::string_view option : options) {
    const util::KeyValue opt = util::key_value(option);
    if (option == "pme=pencil") {
      if (after_pencil) refuse("duplicate pme=pencil option", text);
      spec.pme_mode = PmeMode::kPencil;
      after_pencil = true;
    } else if (opt.key == "pme") {
      refuse("bad PME mode '" + std::string(option) +
                 "' (only pme=pencil is accepted; slab is the default)",
             text);
    } else if (opt.key == "ldb" && opt.has_value) {
      if (seen_ldb) refuse("duplicate ldb option", text);
      seen_ldb = true;
      const std::vector<std::string_view> ldb = util::split(opt.value, ',');
      if (ldb[0] == "off") {
        spec.ldb = LdbPolicy::kOff;
      } else if (ldb[0] == "greedy") {
        spec.ldb = LdbPolicy::kGreedy;
      } else if (ldb[0] == "refine") {
        spec.ldb = LdbPolicy::kRefine;
      } else {
        refuse("bad load-balance policy '" + std::string(ldb[0]) +
                   "' (expected ldb=greedy|refine|off)",
               text);
      }
      if (ldb.size() == 1) continue;
      const util::KeyValue units = util::key_value(ldb[1]);
      if (ldb.size() > 2 || units.key != "units" || !units.has_value) {
        refuse("bad ldb option (expected ldb=POLICY[,units=K])", text);
      }
      if (spec.ldb == LdbPolicy::kOff) {
        refuse("units= is meaningless with ldb=off", text);
      }
      spec.units = util::int_field("decomposition", "work-unit count",
                                   units.value, 1, kMaxCount);
    } else if (opt.key == "grid" && opt.has_value) {
      const std::vector<std::string_view> dims = util::split(opt.value, 'x');
      auto dim = [&](std::size_t i) {
        return util::int_field("decomposition", "grid dimension", dims[i], 1,
                               kMaxCount);
      };
      if (after_pencil) {
        if (spec.pencil_y != 0) refuse("duplicate pencil grid", text);
        if (dims.size() != 2) {
          refuse("bad pencil grid (expected pme=pencil:grid=PyxPz)", text);
        }
        spec.pencil_y = dim(0);
        spec.pencil_z = dim(1);
      } else {
        if (spec.grid_x != 0) refuse("duplicate cell grid", text);
        if (dims.size() != 3) {
          refuse("bad spatial grid (expected spatial:grid=AxBxC)", text);
        }
        spec.grid_x = dim(0);
        spec.grid_y = dim(1);
        spec.grid_z = dim(2);
      }
    } else {
      refuse("bad option '" + std::string(option) +
                 "' (expected grid=..., pme=pencil, or ldb=...)",
             text);
    }
  }
  return spec;
}

int resolved_pme_ranks(const DecompSpec& spec, int nprocs) {
  REPRO_REQUIRE(nprocs >= 2,
                "task decoupling needs at least two processes to split");
  if (spec.pme_ranks > 0) {
    REPRO_REQUIRE(spec.pme_ranks < nprocs,
                  "task decomposition must leave at least one classic rank");
    return spec.pme_ranks;
  }
  return std::max(1, nprocs / 4);
}

std::pair<int, int> resolved_pencil_grid(const DecompSpec& spec, int nprocs,
                                         std::size_t ny, std::size_t nz) {
  REPRO_REQUIRE(nprocs >= 2,
                "the pencil PME grid is only resolved for parallel runs");
  int py = spec.pencil_y;
  int pz = spec.pencil_z;
  if (py > 0) {
    REPRO_REQUIRE(static_cast<long>(py) * pz <= nprocs,
                  "pencil grid " + std::to_string(py) + "x" +
                      std::to_string(pz) + " needs more ranks than the run's " +
                      std::to_string(nprocs));
  } else {
    // Auto: the most-square factorization — the largest divisor d of
    // nprocs with d <= sqrt(nprocs), used as (d, nprocs / d). Squarer
    // grids shrink both transpose group sizes at once.
    py = 1;
    for (int d = 1; static_cast<long>(d) * d <= nprocs; ++d) {
      if (nprocs % d == 0) py = d;
    }
    pz = nprocs / py;
  }
  // Every pencil rank must own at least one plane in each distributed
  // dimension, or its 1-D FFT lines would be empty.
  REPRO_REQUIRE(static_cast<std::size_t>(py) <= ny,
                "pencil grid dimension Py=" + std::to_string(py) +
                    " exceeds the FFT's " + std::to_string(ny) + " y planes");
  REPRO_REQUIRE(static_cast<std::size_t>(pz) <= nz,
                "pencil grid dimension Pz=" + std::to_string(pz) +
                    " exceeds the FFT's " + std::to_string(nz) + " z planes");
  return {py, pz};
}

int resolved_units(const DecompSpec& spec, int nprocs, int ncells) {
  REPRO_REQUIRE(spec.ldb != LdbPolicy::kOff,
                "work units are only resolved when load balancing is on");
  REPRO_REQUIRE(ncells >= nprocs,
                "ldb needs at least one cell per rank to overdecompose (" +
                    std::to_string(ncells) + " cells < " +
                    std::to_string(nprocs) + " ranks); use a finer grid=");
  if (spec.units > 0) {
    REPRO_REQUIRE(spec.units >= nprocs,
                  "units=" + std::to_string(spec.units) +
                      " is fewer than the run's " + std::to_string(nprocs) +
                      " ranks; overdecomposition needs units >= ranks");
    REPRO_REQUIRE(spec.units <= ncells,
                  "units=" + std::to_string(spec.units) +
                      " exceeds the spatial grid's " +
                      std::to_string(ncells) + " cells");
    return spec.units;
  }
  // Auto: 4 units per rank is the classic CHARM++ overdecomposition
  // sweet spot — enough slack for the greedy packer to even out costs,
  // few enough that per-unit bookkeeping stays cheap.
  return std::min(4 * nprocs, ncells);
}

}  // namespace repro::charmm

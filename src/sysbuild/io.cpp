#include "sysbuild/io.hpp"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace repro::sysbuild {

namespace {

// Full round-trip precision for doubles.
std::ostream& prec(std::ostream& out) {
  return out << std::setprecision(17);
}

std::string expect_section(std::istream& in, const std::string& name) {
  std::string token;
  in >> token;
  REPRO_REQUIRE(in.good() && token == name,
                "system file: expected section '" + name + "', got '" +
                    token + "'");
  return token;
}

// Throws on the first record that failed to parse or carries a NaN/inf.
void check_record(const std::istream& in, const char* what, std::size_t t,
                  std::initializer_list<double> values) {
  REPRO_REQUIRE(!in.fail(), std::string("system file: ") + what + " " +
                                std::to_string(t) +
                                " is truncated or malformed");
  for (double v : values) {
    REPRO_REQUIRE(std::isfinite(v), std::string("system file: ") + what +
                                        " " + std::to_string(t) +
                                        " has a non-finite value");
  }
}

}  // namespace

void write_system(std::ostream& out, const BuiltSystem& sys) {
  prec(out);
  out << "RSYS 1\n";
  out << "name " << (sys.name.empty() ? "unnamed" : sys.name) << "\n";
  out << "box " << sys.box.lx() << " " << sys.box.ly() << " " << sys.box.lz()
      << "\n";
  out << "atoms " << sys.topo.natoms() << "\n";
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    const md::AtomParams& a = sys.topo.atom(i);
    const util::Vec3& r = sys.positions[static_cast<std::size_t>(i)];
    out << a.mass << " " << a.charge << " " << a.eps << " " << a.rmin_half
        << " " << r.x << " " << r.y << " " << r.z << "\n";
  }
  out << "bonds " << sys.topo.bonds().size() << "\n";
  for (const auto& b : sys.topo.bonds()) {
    out << b.i << " " << b.j << " " << b.kb << " " << b.b0 << "\n";
  }
  out << "angles " << sys.topo.angles().size() << "\n";
  for (const auto& a : sys.topo.angles()) {
    out << a.i << " " << a.j << " " << a.k << " " << a.ktheta << " "
        << a.theta0 << " " << a.kub << " " << a.s0 << "\n";
  }
  out << "dihedrals " << sys.topo.dihedrals().size() << "\n";
  for (const auto& d : sys.topo.dihedrals()) {
    out << d.i << " " << d.j << " " << d.k << " " << d.l << " " << d.kchi
        << " " << d.n << " " << d.delta << "\n";
  }
  out << "impropers " << sys.topo.impropers().size() << "\n";
  for (const auto& im : sys.topo.impropers()) {
    out << im.i << " " << im.j << " " << im.k << " " << im.l << " "
        << im.kpsi << " " << im.psi0 << "\n";
  }
  out << "end\n";
}

void save_system(const std::string& path, const BuiltSystem& sys) {
  std::ofstream out(path);
  REPRO_REQUIRE(out.good(), "cannot open system file for writing: " + path);
  write_system(out, sys);
  REPRO_REQUIRE(out.good(), "system file write failed: " + path);
}

// Parsing trusts nothing it reads. Every record is checked as soon as it
// is extracted, so a count larger than the file's real content fails at
// the first missing record instead of looping on a failed stream; indices
// must name an atom, and box lengths, parameters and coordinates must be
// finite (box lengths also positive).
BuiltSystem read_system(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  REPRO_REQUIRE(magic == "RSYS" && version == 1,
                "not an RSYS version-1 system file");
  expect_section(in, "name");
  std::string name;
  in >> name;
  expect_section(in, "box");
  double lx = 0.0, ly = 0.0, lz = 0.0;
  in >> lx >> ly >> lz;
  REPRO_REQUIRE(!in.fail() && std::isfinite(lx) && std::isfinite(ly) &&
                    std::isfinite(lz) && lx > 0.0 && ly > 0.0 && lz > 0.0,
                "system file: box lengths must be finite and positive");
  expect_section(in, "atoms");
  int natoms = 0;
  in >> natoms;
  REPRO_REQUIRE(in.good() && natoms > 0, "system file: bad atom count");

  // Atoms are collected before the topology is sized, so memory follows
  // the records actually present, not the declared count.
  std::vector<md::AtomParams> atoms;
  std::vector<util::Vec3> positions;
  for (int i = 0; i < natoms; ++i) {
    md::AtomParams a;
    util::Vec3 r;
    in >> a.mass >> a.charge >> a.eps >> a.rmin_half >> r.x >> r.y >> r.z;
    check_record(in, "atom", static_cast<std::size_t>(i),
                 {a.mass, a.charge, a.eps, a.rmin_half, r.x, r.y, r.z});
    atoms.push_back(a);
    positions.push_back(r);
  }
  BuiltSystem sys(natoms, md::Box(lx, ly, lz), name);
  for (int i = 0; i < natoms; ++i) {
    sys.topo.atom(i) = atoms[static_cast<std::size_t>(i)];
  }
  sys.positions = std::move(positions);

  const auto check_atoms = [&](const char* what, std::size_t t,
                               std::initializer_list<int> idx) {
    for (int a : idx) {
      REPRO_REQUIRE(a >= 0 && a < natoms,
                    std::string("system file: ") + what + " " +
                        std::to_string(t) + " names atom " +
                        std::to_string(a) + ", outside [0, " +
                        std::to_string(natoms) + ")");
    }
  };
  expect_section(in, "bonds");
  std::size_t count = 0;
  in >> count;
  for (std::size_t t = 0; t < count; ++t) {
    md::Bond b;
    in >> b.i >> b.j >> b.kb >> b.b0;
    check_record(in, "bond", t, {b.kb, b.b0});
    check_atoms("bond", t, {b.i, b.j});
    sys.topo.bonds().push_back(b);
  }
  expect_section(in, "angles");
  in >> count;
  for (std::size_t t = 0; t < count; ++t) {
    md::Angle a;
    in >> a.i >> a.j >> a.k >> a.ktheta >> a.theta0 >> a.kub >> a.s0;
    check_record(in, "angle", t, {a.ktheta, a.theta0, a.kub, a.s0});
    check_atoms("angle", t, {a.i, a.j, a.k});
    sys.topo.angles().push_back(a);
  }
  expect_section(in, "dihedrals");
  in >> count;
  for (std::size_t t = 0; t < count; ++t) {
    md::Dihedral d;
    in >> d.i >> d.j >> d.k >> d.l >> d.kchi >> d.n >> d.delta;
    check_record(in, "dihedral", t, {d.kchi, d.delta});
    check_atoms("dihedral", t, {d.i, d.j, d.k, d.l});
    sys.topo.dihedrals().push_back(d);
  }
  expect_section(in, "impropers");
  in >> count;
  for (std::size_t t = 0; t < count; ++t) {
    md::Improper im;
    in >> im.i >> im.j >> im.k >> im.l >> im.kpsi >> im.psi0;
    check_record(in, "improper", t, {im.kpsi, im.psi0});
    check_atoms("improper", t, {im.i, im.j, im.k, im.l});
    sys.topo.impropers().push_back(im);
  }
  expect_section(in, "end");
  REPRO_REQUIRE(!in.fail(), "system file: truncated or malformed");
  sys.topo.build_exclusions();
  return sys;
}

BuiltSystem load_system(const std::string& path) {
  std::ifstream in(path);
  REPRO_REQUIRE(in.good(), "cannot open system file for reading: " + path);
  return read_system(in);
}

namespace {

const char* element_from_mass(double mass) {
  if (mass < 2.0) return " H";
  if (mass < 13.0) return " C";
  if (mass < 15.0) return " N";
  if (mass < 17.0) return " O";
  if (mass < 33.0) return " S";
  return " X";
}

}  // namespace

void write_pdb(std::ostream& out, const BuiltSystem& sys) {
  char line[96];
  std::snprintf(line, sizeof(line),
                "CRYST1%9.3f%9.3f%9.3f  90.00  90.00  90.00 P 1\n",
                sys.box.lx(), sys.box.ly(), sys.box.lz());
  out << line;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    const util::Vec3& r = sys.positions[static_cast<std::size_t>(i)];
    const char* element = element_from_mass(sys.topo.atom(i).mass);
    // PDB atom serials are 5 columns wide; wrap like the big-system tools.
    std::snprintf(line, sizeof(line),
                  "ATOM  %5d %2s   MOL A   1    %8.3f%8.3f%8.3f  1.00  "
                  "0.00          %2s\n",
                  (i % 99999) + 1, element + 1, r.x, r.y, r.z, element);
    out << line;
  }
  // CONECT records only fit 5-digit serials; emit while within range.
  for (const auto& b : sys.topo.bonds()) {
    if (b.i >= 99999 || b.j >= 99999) continue;
    std::snprintf(line, sizeof(line), "CONECT%5d%5d\n", b.i + 1, b.j + 1);
    out << line;
  }
  out << "END\n";
}

void save_pdb(const std::string& path, const BuiltSystem& sys) {
  std::ofstream out(path);
  REPRO_REQUIRE(out.good(), "cannot open PDB file for writing: " + path);
  write_pdb(out, sys);
  REPRO_REQUIRE(out.good(), "PDB write failed: " + path);
}

}  // namespace repro::sysbuild

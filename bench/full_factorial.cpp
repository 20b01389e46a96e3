// The paper's full factorial design (§3.1): every cell of
// network x middleware x CPUs-per-node at 2, 4 and 8 processors, plus the
// quantified factor main effects. The paper gathered this data but
// published only the fractional slice around the focal point; this binary
// produces the complete table.
//
// Flags:
//   --jobs=N   worker threads for the sweep (default: hardware concurrency,
//              or REPRO_JOBS; 1 runs sequentially). Output is identical
//              for any N — only wall-clock changes.
//   --steps=N  MD steps per cell (default 10, the paper's run length)
//   --procs=A,B,...  processor counts to sweep (default 2,4,8)
#include "figure_common.hpp"

#include <string>

#include "core/factorial.hpp"

using namespace repro;

namespace {

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stoi(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = bench::default_jobs();
  std::vector<int> procs{2, 4, 8};
  charmm::CharmmConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::stoi(arg.substr(7));
    } else if (arg.rfind("--steps=", 0) == 0) {
      config.nsteps = std::stoi(arg.substr(8));
    } else if (arg.rfind("--procs=", 0) == 0) {
      procs = parse_int_list(arg.substr(8));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--steps=N] [--procs=A,B,...]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("Full factorial (§3.1)",
                      "all 12 platform cells x processor counts, with "
                      "factor main effects");
  const auto cells =
      core::run_full_factorial(bench::prepared_system(), procs, config, jobs);
  std::printf("%s\n", core::factorial_report(cells).c_str());
  return 0;
}

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

#include <algorithm>
#include <string>

#include "core/factorial.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const std::string usage = std::string("usage: ") + argv[0] +
                            " [--jobs=N] [--steps=N] [--procs=A,B,...]\n";
  int jobs = bench::env_jobs(usage);
  std::vector<int> procs{2, 4, 8};
  charmm::CharmmConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = bench::int_value("--jobs", arg.substr(7), 0, INT_MAX, usage);
    } else if (arg.rfind("--steps=", 0) == 0) {
      config.nsteps =
          bench::int_value("--steps", arg.substr(8), 1, INT_MAX, usage);
    } else if (arg.rfind("--procs=", 0) == 0) {
      procs.clear();
      std::size_t pos = 8;
      while (true) {
        const std::size_t comma = std::min(arg.find(',', pos), arg.size());
        procs.push_back(bench::int_value(
            "--procs", arg.substr(pos, comma - pos), 1, INT_MAX, usage));
        if (comma == arg.size()) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::fputs(usage.c_str(), stdout);
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

#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "core/replay.hpp"
#include "util/error.hpp"

namespace repro::core {

namespace {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

std::string spec_label(const ExperimentSpec& spec) {
  std::string label =
      spec.platform.to_string() + " p=" + std::to_string(spec.nprocs);
  if (spec.charmm.decomp.kind != charmm::DecompKind::kAtomReplicated) {
    label += " decomp=" + charmm::to_string(spec.charmm.decomp);
  }
  if (spec.faults && spec.faults->any()) {
    label += " faults[" + net::to_string(*spec.faults) + "]";
  }
  if (!spec.topology.single()) {
    label += " topology=" + net::to_string(spec.topology);
  }
  const mpi::CollectiveConfig defaults;
  if (spec.collectives.allreduce != defaults.allreduce) {
    label += std::string(" allreduce=") +
             mpi::to_string(spec.collectives.allreduce);
  }
  if (spec.collectives.bcast != defaults.bcast) {
    label += std::string(" bcast=") + mpi::to_string(spec.collectives.bcast);
  }
  if (spec.network_params) {
    const std::string changes = net::describe_changes(
        *spec.network_params, net::params_for(spec.platform.network));
    if (!changes.empty()) label += " params[" + changes + "]";
  }
  return label;
}

SweepRunner::SweepRunner(int jobs) : jobs_(resolve_jobs(jobs)) {}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// A recording cell's trace, published to its class-mates once the cell
// has finished (its outcome tells whether it succeeded).
struct ClassTrace {
  CellTrace trace;
  std::promise<void> done;
  std::shared_future<void> ready = done.get_future().share();
};

}  // namespace

std::vector<SweepOutcome> SweepRunner::run(
    const sysbuild::BuiltSystem& sys, const std::vector<ExperimentSpec>& specs,
    const SweepProgress& progress) const {
  std::vector<SweepOutcome> outcomes(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    outcomes[i].spec = specs[i];
  }

  // Physics classes, in submission order: each replayable cell joins the
  // class of the first earlier cell with the same physics, which records.
  // Singleton classes record nothing.
  std::vector<std::size_t> recorder_of(specs.size(), kNone);
  std::vector<std::unique_ptr<ClassTrace>> traces(specs.size());
  std::vector<std::size_t> leaders;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!replayable(specs[i])) continue;
    const auto leader = std::find_if(
        leaders.begin(), leaders.end(),
        [&](std::size_t l) { return same_physics(specs[l], specs[i]); });
    if (leader == leaders.end()) {
      leaders.push_back(i);
      continue;
    }
    recorder_of[i] = *leader;
    if (!traces[*leader]) traces[*leader] = std::make_unique<ClassTrace>();
  }
  // Recording and full cells first, then the replays, each in submission
  // order. A replay waits for its recorder, which a worker has already
  // taken from the queue, so the wait always ends.
  std::vector<std::size_t> order;
  order.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (recorder_of[i] == kNone) order.push_back(i);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (recorder_of[i] != kNone) order.push_back(i);
  }

  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;
  // Each worker writes only its own outcome slot (and, for a recording
  // cell, its class trace, published through the promise); the per-cell
  // simulation is constructed inside the run, so cells share nothing but
  // the read-only system and finished recordings.
  auto run_cell = [&](std::size_t i) {
    SweepOutcome& out = outcomes[i];
    ClassTrace* own = traces[i].get();
    try {
      const std::size_t leader = recorder_of[i];
      const ClassTrace* recording =
          leader == kNone ? nullptr : traces[leader].get();
      if (recording != nullptr) recording->ready.wait();
      if (own != nullptr) {
        out.result = record_experiment(sys, out.spec, own->trace);
      } else if (recording != nullptr && outcomes[leader].ok()) {
        out.result = replay_experiment(out.spec, recording->trace,
                                       outcomes[leader].result);
        out.replayed = true;
      } else {
        out.result = run_experiment(sys, out.spec);
      }
    } catch (const std::exception& e) {
      out.error = e.what();
      if (out.error.empty()) out.error = "unknown error";
    } catch (...) {
      out.error = "unknown error";
    }
    if (own != nullptr) own->done.set_value();
    if (progress) {
      std::lock_guard<std::mutex> lk(progress_mu);
      progress(done.fetch_add(1) + 1, specs.size(), out);
    }
  };

  const auto nworkers = std::min<std::size_t>(
      static_cast<std::size_t>(jobs_), specs.size());
  if (nworkers <= 1) {
    for (std::size_t i : order) run_cell(i);
    return outcomes;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(nworkers);
  for (std::size_t w = 0; w < nworkers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= order.size()) return;
        run_cell(order[k]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return outcomes;
}

std::vector<ExperimentResult> run_experiments(
    const sysbuild::BuiltSystem& sys, const std::vector<ExperimentSpec>& specs,
    int jobs, const SweepProgress& progress) {
  std::vector<SweepOutcome> outcomes =
      SweepRunner(jobs).run(sys, specs, progress);
  std::vector<ExperimentResult> results;
  results.reserve(outcomes.size());
  for (SweepOutcome& out : outcomes) {
    REPRO_REQUIRE(out.ok(), "sweep cell failed (" + spec_label(out.spec) +
                                "): " + out.error);
    results.push_back(std::move(out.result));
  }
  return results;
}

}  // namespace repro::core

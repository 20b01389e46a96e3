// Virtual-time accounting in the paper's terms.
//
// The paper decomposes each component of the energy calculation (classic,
// PME) into:
//   computation     — CPU time in the force/energy kernels,
//   communication   — time spent transferring data (host protocol work,
//                     copies, wire occupancy charged to the process),
//   synchronization — time spent in control transfer: barriers, waiting
//                     for matching messages, back-pressure stalls.
//
// Every simulated rank owns a RankRecorder. The application marks which
// component is active; the SimMPI layer classifies its own costs as
// communication or synchronization; kernels charge computation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace repro::perf {

enum class Component : int { kClassic = 0, kPme = 1, kOther = 2 };
enum class Kind : int { kComp = 0, kComm = 1, kSync = 2 };

inline constexpr int kNumComponents = 3;
inline constexpr int kNumKinds = 3;

const char* to_string(Component c);
const char* to_string(Kind k);

// One component's time split.
struct Breakdown {
  double comp = 0.0;
  double comm = 0.0;
  double sync = 0.0;

  double total() const { return comp + comm + sync; }
  double overhead() const { return comm + sync; }
  double overhead_fraction() const {
    const double t = total();
    return t > 0.0 ? overhead() / t : 0.0;
  }
  Breakdown& operator+=(const Breakdown& o) {
    comp += o.comp;
    comm += o.comm;
    sync += o.sync;
    return *this;
  }
  friend Breakdown operator+(Breakdown a, const Breakdown& b) {
    return a += b;
  }
};

// Communication volume/time of one rank during one MD step, the raw
// material for the paper's Figure 7 (per-node communication speed and its
// variability).
struct StepComm {
  double bytes = 0.0;
  double comm_time = 0.0;

  // MB/s as plotted by the paper (0 when the step had no transfer time).
  double speed_mb_per_s() const {
    return comm_time > 0.0 ? bytes / comm_time / 1.0e6 : 0.0;
  }
};

class Timeline;

// One operation of a rank program at the mpi::Comm boundary, stamped with
// the component and phase active when it was issued. A rank's RankTrace
// is everything the platform needs to time the program again without its
// physics (core/replay.hpp): computation by its raw seconds and every
// message by its size, the messages inside the middleware's and SimMPI's
// collectives included.
struct TraceOp {
  enum class Kind : std::uint8_t {
    kCompute,  // seconds (before the node's compute factor)
    kSend,     // peer, tag, size in bytes, exchange, sync
    kRecv,     // peer, tag, size = buffer bytes, received, sync
    kEndStep,
  };
  Kind kind = Kind::kCompute;
  bool exchange = false;
  bool sync = false;  // issued inside an mpi::Comm::SyncScope
  Component component = Component::kOther;
  const char* phase = nullptr;
  int peer = 0;
  int tag = 0;
  std::size_t size = 0;
  std::size_t received = 0;
  double seconds = 0.0;
};

struct RankTrace {
  std::vector<TraceOp> ops;
};

class RankRecorder {
 public:
  void set_component(Component c) { current_ = c; }
  Component component() const { return current_; }

  // Optional phase attribution: while a phase label is set (a static
  // string naming a step of the decomposition's schedule, e.g. "fold",
  // "pme_recip"), all recorded time is additionally accumulated under
  // that name, and the communication layer tags timeline events with it
  // instead of the generic operation name. nullptr (the default) turns
  // attribution off, keeping pre-existing behaviour untouched.
  void set_phase(const char* name) { phase_ = name; }
  const char* phase() const { return phase_; }
  const std::map<std::string, double>& phase_times() const {
    return phase_times_;
  }

  // Optional timeline sink (see perf/timeline.hpp): when attached, the
  // communication layer also records each charged interval with its
  // virtual start/end time.
  void attach_timeline(Timeline* timeline) { timeline_ = timeline; }
  Timeline* timeline() const { return timeline_; }

  // Optional operation trace (see TraceOp): while one is attached, the
  // communication layer and end_step() append the rank program's
  // operations to it.
  void attach_trace(RankTrace* trace) { trace_ = trace; }
  RankTrace* trace() const { return trace_; }
  // Appends `op`, stamped with the active component and phase, to the
  // attached trace; a no-op when none is attached.
  void trace_op(TraceOp op) {
    if (trace_ == nullptr) return;
    op.component = current_;
    op.phase = phase_;
    trace_->ops.push_back(op);
  }

  void record(Kind kind, double dt) {
    REPRO_REQUIRE(dt >= 0.0, "cannot record negative time");
    times_[static_cast<std::size_t>(current_)]
          [static_cast<std::size_t>(kind)] += dt;
    if (kind == Kind::kComm) step_.comm_time += dt;
    if (phase_ != nullptr) phase_times_[phase_] += dt;
  }

  // Books a back-pressure stall. Taxonomically the stall is control
  // transfer (the sender is blocked on the NIC queue draining), so it
  // lands in the synchronization column; but it still elapses *inside*
  // the data-transfer call, so it stays part of the step's transfer time
  // — Figure 7 measures per-node speed over time spent in transfer calls.
  void record_stall(double dt) {
    record(Kind::kSync, dt);
    step_.comm_time += dt;
  }

  void record_bytes(double bytes) {
    step_.bytes += bytes;
    total_bytes_ += bytes;
  }

  // Closes the current MD step's communication sample.
  void end_step() {
    trace_op({.kind = TraceOp::Kind::kEndStep});
    steps_.push_back(step_);
    step_ = StepComm{};
  }

  // Index of the MD step currently being recorded (number of closed
  // steps); used to stamp timeline events with their step.
  int step_index() const { return static_cast<int>(steps_.size()); }

  double time(Component c, Kind k) const {
    return times_[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
  }
  Breakdown breakdown(Component c) const {
    return Breakdown{time(c, Kind::kComp), time(c, Kind::kComm),
                     time(c, Kind::kSync)};
  }
  Breakdown total_breakdown() const {
    Breakdown b;
    for (int c = 0; c < kNumComponents; ++c) {
      b += breakdown(static_cast<Component>(c));
    }
    return b;
  }

  const std::vector<StepComm>& steps() const { return steps_; }
  double total_bytes() const { return total_bytes_; }

 private:
  Component current_ = Component::kOther;
  const char* phase_ = nullptr;
  Timeline* timeline_ = nullptr;
  RankTrace* trace_ = nullptr;
  std::array<std::array<double, kNumKinds>, kNumComponents> times_{};
  std::map<std::string, double> phase_times_;
  StepComm step_;
  std::vector<StepComm> steps_;
  double total_bytes_ = 0.0;
};

// RAII helper to scope a phase label (see RankRecorder::set_phase).
class PhaseScope {
 public:
  PhaseScope(RankRecorder& rec, const char* name)
      : rec_(rec), saved_(rec.phase()) {
    rec_.set_phase(name);
  }
  ~PhaseScope() { rec_.set_phase(saved_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  RankRecorder& rec_;
  const char* saved_;
};

// RAII helper to scope a component region.
class ComponentScope {
 public:
  ComponentScope(RankRecorder& rec, Component c)
      : rec_(rec), saved_(rec.component()) {
    rec_.set_component(c);
  }
  ~ComponentScope() { rec_.set_component(saved_); }
  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  RankRecorder& rec_;
  Component saved_;
};

}  // namespace repro::perf

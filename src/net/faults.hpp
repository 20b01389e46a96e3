// Fault injection and perturbation for the simulated cluster.
//
// The paper's Figure 7 shows per-node communication speed on the TCP
// stacks swinging over a wide min/max band while SCore and Myrinet stay
// flat. The base model reproduces that with a calibrated stochastic
// jitter knob (NetworkParams::jitter_*); this module models the
// *mechanisms* behind such variability so it can be studied directly:
//
//   packet loss      — per-packet Bernoulli loss on cross-node links,
//                      recovered either by a 2001-era TCP coarse
//                      retransmission timeout with exponential backoff
//                      (hundreds of milliseconds per incident) or by
//                      Myrinet-style link-level flow control (a resend
//                      costs microseconds). Same loss rate, radically
//                      different tail — the TCP variability of Figure 7
//                      emerges from the recovery discipline.
//   link degradation — persistent bandwidth/latency derating of chosen
//                      node pairs (a renegotiated duplex link, a bad
//                      cable), applied to every message between them.
//   stragglers       — per-node compute slowdown and/or periodic OS-noise
//                      bursts (daemon wakeups) that stretch compute
//                      regions on that node.
//   node stalls      — transient freezes: during [at, at + duration] the
//                      node neither computes nor sends, and inbound
//                      messages are not consumed until the window ends.
//
// All randomness comes from one xoshiro stream seeded from the cluster
// seed, so fault sequences are bit-reproducible per seed and independent
// of sweep concurrency. Faults only ever *delay* traffic — payload bytes
// are never dropped or corrupted, so collective results are unchanged and
// only timing moves (the property tests pin this).
//
// Accounting: every injected delay is attributed to the component
// (classic / PME / other) that was active on the issuing rank, so a run
// reports which part of the energy calculation absorbed the perturbation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace repro::net {

// Per-link packet loss with a recovery discipline.
struct PacketLossFault {
  // How a lost packet is recovered.
  enum class Recovery {
    // TCP on Linux 2.4: the coarse retransmission timer fires after
    // `rto` seconds; successive losses of the same packet back off
    // exponentially. The link sits idle during the wait.
    kTimeoutRetransmit,
    // Myrinet/SCore-style link-level flow control: the hardware resends
    // after one link round trip; the host never notices.
    kLinkLevel,
  };

  double loss_prob = 0.0;  // per-packet loss probability, [0, 1)
  Recovery recovery = Recovery::kTimeoutRetransmit;
  double rto = 0.2;         // initial retransmission timeout (seconds)
  double rto_backoff = 2.0; // RTO multiplier per successive loss
  int max_retries = 16;     // per packet; further losses deliver anyway
};

// Persistent degradation of the link between two nodes (both directions).
struct LinkDegradation {
  int node_a = 0;
  int node_b = 0;
  double bandwidth_factor = 1.0;  // effective bandwidth multiplier, (0, 1]
  double extra_latency = 0.0;     // added one-way latency (seconds)
};

// A straggler node: uniformly slow compute and/or periodic OS noise.
struct Straggler {
  int node = 0;
  double compute_factor = 1.0;  // multiplier on compute time, >= 1
  double noise_period = 0.0;    // a burst every `period` virtual seconds
  double noise_duration = 0.0;  // each burst steals this much CPU time
};

// A transient full-node stall (kernel hiccup, checkpoint pause).
struct NodeStall {
  int node = 0;
  double at = 0.0;        // window start (virtual seconds)
  double duration = 0.0;  // window length
};

struct FaultSpec {
  std::vector<PacketLossFault> packet_loss;  // 0 or 1 entries in practice
  std::vector<LinkDegradation> degraded_links;
  std::vector<Straggler> stragglers;
  std::vector<NodeStall> stalls;

  bool any() const {
    return !packet_loss.empty() || !degraded_links.empty() ||
           !stragglers.empty() || !stalls.empty();
  }

  // Throws util::Error when a parameter is out of range (probabilities,
  // factors, windows) or, when nnodes >= 0, when a node index does not
  // exist on the cluster.
  void validate(int nnodes = -1) const;
};

// Parses the CLI mini-language (see docs/FAULTS.md):
//   loss=P[,rto=S][,backoff=B][,retries=N][,recovery=timeout|linklevel]
//   degrade=A-B[,bw=F][,lat=S]
//   straggler=N[,x=F][,period=S][,dur=S]
//   stall=N[,at=S][,dur=S]
// Clauses are separated by ';'. The empty string is the empty spec; an
// empty clause or modifier (a stray ';' or ',') is malformed. Throws
// util::Error on malformed input.
FaultSpec parse_fault_spec(const std::string& text);

// Canonical spec string (round-trips through parse_fault_spec).
std::string to_string(const FaultSpec& spec);

// Absorbed-delay classes, mirroring perf::Component (classic, pme, other)
// without a dependency on the perf layer.
inline constexpr int kFaultAbsorbClasses = 3;

// Cumulative injected-fault counters for one run.
struct FaultCounters {
  std::uint64_t packets_lost = 0;      // lost transmissions (incl. retries)
  std::uint64_t retransmits = 0;       // recovery rounds triggered
  double retransmitted_bytes = 0.0;    // payload bytes sent again
  double retransmit_delay = 0.0;       // recovery waits injected (seconds)
  std::uint64_t degraded_messages = 0; // messages over a degraded link
  double degradation_delay = 0.0;
  std::uint64_t noise_bursts = 0;      // OS-noise bursts absorbed
  double noise_delay = 0.0;
  double straggler_delay = 0.0;        // extra compute from slow nodes
  std::uint64_t stall_events = 0;      // stall windows hit
  double stall_delay = 0.0;
  // Injected delay attributed to the component active when it was
  // absorbed, indexed like perf::Component (classic, pme, other).
  std::array<double, kFaultAbsorbClasses> absorbed{};

  double total_delay() const {
    return retransmit_delay + degradation_delay + noise_delay +
           straggler_delay + stall_delay;
  }
};

// Seed-deterministic fault state for one simulated run. Owned by the
// ClusterNetwork; all calls happen on the serialized engine path, so no
// locking is needed (same contract as the jitter RNG).
class FaultInjector {
 public:
  // Validates the spec against the node count; throws util::Error on a
  // bad spec. `seed` should derive from the cluster seed (mix_seed) so
  // fault streams differ per run but are reproducible.
  FaultInjector(const FaultSpec& spec, std::uint64_t seed, int nnodes);

  const FaultSpec& spec() const { return spec_; }
  const FaultCounters& counters() const { return counters_; }

  // Effect of loss + degradation on one cross-node message of `bytes`
  // payload in `packets` MTU-sized packets over a link of nominal
  // `bandwidth` (bytes/s) whose unperturbed transmission would occupy the
  // wire for `nominal_wire` seconds. Draws from the fault RNG and
  // accumulates counters.
  struct LinkEffect {
    double extra_wire = 0.0;     // additional link occupancy (seconds)
    double extra_latency = 0.0;  // additional arrival delay (seconds)
    double retrans_bytes = 0.0;
    std::uint32_t retransmits = 0;
    double total_delay() const { return extra_wire + extra_latency; }
  };
  LinkEffect perturb_link(int src_node, int dst_node, std::size_t bytes,
                          std::size_t packets, std::size_t mtu,
                          double bandwidth, double latency,
                          double nominal_wire);

  // Earliest time >= t at which `node` is not frozen by a stall window.
  // Accumulates stall counters when t falls inside a window.
  double stall_release(int node, double t);

  // Extra time a compute region of `duration` starting at `t` on `node`
  // absorbs: straggler slowdown, OS-noise bursts inside the window, and
  // stall windows overlapping it.
  double perturb_compute(int node, double t, double duration);

  // Attributes `delay` seconds of injected perturbation to a component
  // class (perf::Component value as int).
  void attribute(int component_class, double delay);

 private:
  const LinkDegradation* degradation_for(int a, int b) const;

  FaultSpec spec_;
  int nnodes_ = 0;
  util::Rng rng_;
  FaultCounters counters_;
  // Per-node straggler lookup (nullptr when the node is healthy).
  std::vector<const Straggler*> straggler_of_;
};

}  // namespace repro::net

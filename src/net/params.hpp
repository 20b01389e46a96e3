// Network stack parameter sets (LogGP-style, plus behavioral flags).
//
// One NetworkParams instance describes one communication stack of the
// paper's factor space. Values are calibrated to published ~2001
// measurements for the CoPs cluster era (see models.cpp for the rationale
// per stack); the *relations* between stacks (latency, per-packet overhead,
// stability, driver architecture) are what the reproduction depends on.
#pragma once

#include <cstddef>
#include <string>

namespace repro::net {

// The paper's "Networking" factor: physical interconnect bundled with its
// system software.
enum class Network {
  kTcpGigE,    // MPICH over TCP/IP on Gigabit Ethernet (reference level)
  kScoreGigE,  // SCore PM on Gigabit Ethernet
  kMyrinetGM,  // MPICH-GM on Myrinet (M2F-PCI32C, LANai coprocessor)
  // The common Beowulf interconnect of the era; the paper's earlier report
  // ([17], summarized in §4.1) found it "has almost the same performance
  // characteristics and the same interactions as Gigabit Ethernet" for
  // this workload — a claim the model reproduces.
  kTcpFastEthernet,
};

std::string to_string(Network net);

struct NetworkParams {
  std::string name;

  // --- per-message host costs (seconds) -------------------------------
  double send_overhead = 0.0;  // fixed CPU cost on the sender per message
  double recv_overhead = 0.0;  // fixed CPU cost on the receiver per message

  // --- per-packet host costs (seconds) --------------------------------
  // TCP pays the protocol stack per MTU-sized packet; offloading NICs
  // (Myrinet's LANai) pay almost nothing on the host.
  double packet_cost_send = 0.0;
  double packet_cost_recv = 0.0;
  std::size_t mtu = 1460;  // payload bytes per packet

  // --- wire ------------------------------------------------------------
  double latency = 0.0;    // switch + wire one-way latency per message
  double bandwidth = 1.0;  // link bandwidth, bytes/second

  // Sender-side kernel/NIC buffering: the sender blocks (back-pressure)
  // once more than this many seconds of traffic are queued on its NIC.
  double send_buffer_time = 0.0;

  // --- intra-node path (two ranks on one dual-CPU node) ----------------
  double shm_overhead = 0.0;    // per-message cost, both sides
  double shm_bandwidth = 1.0;   // memory-copy bandwidth, bytes/second
  bool loopback_through_stack = false;  // TCP: intra-node goes via the
                                        // kernel stack (per-packet costs
                                        // and the interrupt CPU apply)

  // Half-duplex behaviour: 2001-era TCP/GigE NICs and stacks lost most of
  // their throughput under simultaneous send+receive (interrupt pressure,
  // single DMA engine). Messages that are part of a bidirectional exchange
  // (all-to-all transposes, ring shifts) see their wire time multiplied by
  // this factor; one-way traffic (tree reduce/broadcast stages) does not.
  double duplex_exchange_factor = 1.0;

  // --- driver architecture ---------------------------------------------
  // TCP on Linux 2.4: one CPU per node services NIC interrupts; inbound
  // per-packet work serializes there. SCore/Myrinet use user-level or
  // coprocessor paths without that bottleneck.
  bool rx_uses_interrupt_cpu = false;
  // Multiplier on host per-packet costs when two ranks share a node
  // (kernel lock contention / cacheline bouncing on SMP TCP).
  double smp_host_penalty = 1.0;
  // Wire-time divisor when either endpoint node runs two ranks: effective
  // bandwidth collapses when the kernel cannot route interrupts to the
  // right CPU (the §4.3 bottleneck). 1.0 = no effect.
  double smp_bandwidth_factor = 1.0;
  // Compute slowdown for ranks sharing a node (memory-bus contention).
  double smp_compute_penalty = 1.0;

  // --- flow-control instability (TCP) -----------------------------------
  // With >= `jitter_min_ranks` ranks, each cross-node message suffers a
  // bandwidth dip / latency spike with probability
  // jitter_prob_per_rank * (nranks - jitter_min_ranks + 1).
  double jitter_prob_per_rank = 0.0;
  int jitter_min_ranks = 4;
  double jitter_latency_mean = 0.0;   // exponential latency spike (seconds)
  double jitter_slowdown_mean = 0.0;  // exponential extra wire-time factor

  // --- protocol -----------------------------------------------------------
  // Messages of at least this many bytes use a rendezvous handshake
  // (request-to-send / clear-to-send) instead of the eager protocol, as
  // MPICH did for large transfers. 0 disables rendezvous entirely (the
  // calibrated default; see the protocol ablation bench).
  std::size_t rendezvous_threshold = 0;

  // --- receiver copy ----------------------------------------------------
  // User-space copy cost charged to the receiving process when it consumes
  // a message (kernel buffer -> application buffer), bytes/second.
  double copy_bandwidth = 1.0;
};

// Sanity-checks a parameter set: rejects mtu == 0 (packet math would
// divide by zero), non-positive bandwidth / copy_bandwidth / shm_bandwidth
// and negative costs, so future calibration edits fail loudly instead of
// silently producing nonsense timings. Throws util::Error.
void validate_params(const NetworkParams& params);

// Calibrated parameter sets for the three stacks of the paper (validated).
NetworkParams params_for(Network net);

// The fields of `params` that differ from `base`, as "field=value" joined
// by commas ("" when none differ) — names a custom parameter set in
// progress lines and error reports.
std::string describe_changes(const NetworkParams& params,
                             const NetworkParams& base);

}  // namespace repro::net

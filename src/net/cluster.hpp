// Simulated cluster: node topology, per-node resources and message timing.
//
// ClusterNetwork turns a message description (src rank, dst rank, bytes,
// send time) into a MessageTiming using the configured NetworkParams and
// the shared per-node resources (NIC tx/rx link occupancy, the interrupt
// CPU). It is shared by all simulated ranks; the discrete-event engine
// serializes access and guarantees nondecreasing request times, so no
// locking is needed and Resource's FIFO model is exact.
#pragma once

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/faults.hpp"
#include "net/params.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "util/rng.hpp"

namespace repro::net {

// Placement of ranks onto physical nodes. Ranks are placed in blocks:
// node = rank / cpus_per_node, mirroring how mpirun filled the CoPs
// cluster's process slots.
struct ClusterConfig {
  int nranks = 1;
  int cpus_per_node = 1;
  Network network = Network::kTcpGigE;
  std::uint64_t seed = 0x5eed;
  // Fabric between the nodes. The single-switch default reproduces the
  // paper's cluster bit-identically; fat-tree/torus route cross-node
  // messages through per-hop link resources (see net/topology.hpp).
  TopologySpec topology;
};

// How one message spends its time, as computed at send time.
struct MessageTiming {
  double sender_busy = 0.0;   // sender CPU time (communication)
  double sender_stall = 0.0;  // back-pressure wait (synchronization)
  double arrival = 0.0;       // when the message becomes matchable at dst
  double recv_copy = 0.0;     // receiver CPU time on consume (communication)
  double wire_time = 0.0;     // link occupancy (0 for intra-node messages)
  // Injected-fault footprint of this message (all zero without faults):
  // total delay added by loss recovery / degradation / stalls, and the
  // retransmission traffic it triggered.
  double fault_delay = 0.0;
  double retrans_bytes = 0.0;
  std::uint32_t retransmits = 0;
};

// Cumulative traffic counters for one src→dst rank pair.
struct ChannelStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double stall_time = 0.0;  // sender back-pressure accumulated on this pair
  double wire_time = 0.0;   // link occupancy accumulated on this pair
};

class ClusterNetwork {
 public:
  ClusterNetwork(const ClusterConfig& config, const NetworkParams& params);
  explicit ClusterNetwork(const ClusterConfig& config)
      : ClusterNetwork(config, params_for(config.network)) {}
  // With perturbations: faults.any() arms a seed-deterministic
  // FaultInjector (seeded from config.seed, independent of the jitter
  // stream). An empty spec behaves exactly like the two-argument form.
  ClusterNetwork(const ClusterConfig& config, const NetworkParams& params,
                 const FaultSpec& faults);

  int nranks() const { return config_.nranks; }
  int nnodes() const { return nnodes_; }
  int node_of(int rank) const { return rank / config_.cpus_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  const NetworkParams& params() const { return params_; }
  const ClusterConfig& config() const { return config_; }

  // Computes the timing of one message sent at `t_send`. Mutates shared
  // resource state (NIC occupancy, jitter RNG); call exactly once per
  // message, in nondecreasing t_send order (the engine guarantees this
  // when called right after RankCtx::checkpoint()).
  // `exchange` marks messages belonging to a bidirectional exchange
  // pattern (both directions concurrently active on the endpoints).
  MessageTiming message(int src, int dst, std::size_t bytes, double t_send,
                        bool exchange = false);

  // Compute-time multiplier for a rank (memory-bus contention on dual-CPU
  // nodes; 1.0 on uni-processor nodes). Fault perturbations are separate:
  // see compute_perturbation().
  double compute_factor(int rank) const {
    const int node = node_of(rank);
    const int first = node * config_.cpus_per_node;
    const int on_node = std::min(config_.cpus_per_node,
                                 config_.nranks - first);
    return on_node >= 2 ? params_.smp_compute_penalty : 1.0;
  }

  // --- fault injection -------------------------------------------------
  bool faults_enabled() const { return faults_ != nullptr; }
  // Cumulative injected-fault counters; nullptr when no faults are armed.
  const FaultCounters* fault_counters() const {
    return faults_ ? &faults_->counters() : nullptr;
  }
  // Extra virtual time a compute region of `duration` seconds starting at
  // `t_start` on `rank`'s node absorbs (straggler slowdown, OS-noise
  // bursts, stall overlap). 0 without faults. Mutates fault counters;
  // call once per region, on the serialized engine path.
  double compute_perturbation(int rank, double t_start, double duration) {
    return faults_ ? faults_->perturb_compute(node_of(rank), t_start,
                                              duration)
                   : 0.0;
  }
  // Attributes injected delay to the perf component (as int) that
  // absorbed it; no-op without faults.
  void attribute_fault_delay(int component_class, double delay) {
    if (faults_ && delay > 0.0) faults_->attribute(component_class, delay);
  }

  // Registry of the shared per-node resources ("nodeN/nic_tx",
  // "nodeN/nic_rx", "nodeN/irq_cpu"), for utilization reporting. Pointers
  // stay valid for the network's lifetime.
  const std::vector<const sim::Resource*>& resources() const {
    return registry_;
  }

  // Cumulative per-channel traffic counters (messages, bytes, stall and
  // wire time accumulated on the src→dst pair). Storage is sparse — most
  // of the p² rank pairs never exchange a message in the nearest-neighbor
  // and ring patterns — so an untouched pair returns a zero ChannelStats.
  const ChannelStats& channel(int src, int dst) const {
    REPRO_REQUIRE(src >= 0 && src < config_.nranks, "channel: bad src rank");
    REPRO_REQUIRE(dst >= 0 && dst < config_.nranks, "channel: bad dst rank");
    const auto it = channels_.find(channel_key(src, dst));
    if (it == channels_.end()) {
      static const ChannelStats kEmpty{};
      return kEmpty;
    }
    return it->second.stats;
  }

  // Visits every channel that carried at least one message, in
  // deterministic (src, dst) order — use this instead of scanning all
  // p² pairs through channel().
  void for_each_channel(
      const std::function<void(int src, int dst, const ChannelStats&)>& fn)
      const;

  // The fabric between the nodes (single switch unless configured).
  const Topology& topology() const { return *topology_; }
  // Per-hop fabric link resources (empty on the single switch).
  const std::vector<const sim::Resource*>& fabric_links() const {
    return topology_->links();
  }

 private:
  std::size_t packets_for(std::size_t bytes) const {
    return bytes == 0 ? 1 : (bytes + params_.mtu - 1) / params_.mtu;
  }
  double host_packet_factor(int node) const;

  MessageTiming intra_node(int src, int dst, std::size_t bytes,
                           double t_send);
  MessageTiming cross_node(int src, int dst, std::size_t bytes,
                           double t_send, bool exchange);

  ClusterConfig config_;
  NetworkParams params_;
  int nnodes_ = 0;

  struct NodeResources {
    sim::Resource nic_tx;   // outbound link occupancy
    sim::Resource nic_rx;   // inbound link occupancy (incast contention)
    sim::Resource irq_cpu;  // interrupt-handling CPU (TCP only)
  };
  std::vector<NodeResources> nodes_;

  util::Rng jitter_rng_;
  std::unique_ptr<FaultInjector> faults_;  // null unless a FaultSpec is set
  std::unique_ptr<Topology> topology_;
  std::vector<const sim::Resource*> registry_;

  // Sparse per-(src,dst) channel accounting, keyed by the packed pair.
  // last_arrival enforces per-channel FIFO delivery: every real stack here
  // (TCP, PM, GM) delivers in order per channel, and the ring/pairwise
  // collective algorithms depend on that, so arrivals are clamped.
  struct ChannelState {
    ChannelStats stats;
    double last_arrival = 0.0;
  };
  static std::uint64_t channel_key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }
  std::unordered_map<std::uint64_t, ChannelState> channels_;
};

}  // namespace repro::net

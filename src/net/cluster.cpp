#include "net/cluster.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace repro::net {

ClusterNetwork::ClusterNetwork(const ClusterConfig& config,
                               const NetworkParams& params)
    : config_(config),
      params_(params),
      jitter_rng_(util::mix_seed(config.seed, 0x6e657477,
                                 static_cast<std::uint64_t>(config.nranks))) {
  REPRO_REQUIRE(config.nranks >= 1, "cluster needs at least one rank");
  REPRO_REQUIRE(config.cpus_per_node >= 1 && config.cpus_per_node <= 2,
                "CoPs nodes are uni- or dual-processor");
  validate_params(params_);
  nnodes_ = (config.nranks + config.cpus_per_node - 1) / config.cpus_per_node;
  nodes_.resize(static_cast<std::size_t>(nnodes_));
  for (int n = 0; n < nnodes_; ++n) {
    auto& node = nodes_[static_cast<std::size_t>(n)];
    const std::string prefix = "node" + std::to_string(n) + "/";
    node.nic_tx = sim::Resource(prefix + "nic_tx");
    node.nic_rx = sim::Resource(prefix + "nic_rx");
    node.irq_cpu = sim::Resource(prefix + "irq_cpu");
    registry_.push_back(&node.nic_tx);
    registry_.push_back(&node.nic_rx);
    registry_.push_back(&node.irq_cpu);
  }
  // Validates the topology spec against the node count (throws on a torus
  // grid too small for the cluster, etc).
  topology_ = std::make_unique<Topology>(config_.topology, nnodes_);
}

ClusterNetwork::ClusterNetwork(const ClusterConfig& config,
                               const NetworkParams& params,
                               const FaultSpec& faults)
    : ClusterNetwork(config, params) {
  // An empty spec leaves faults_ null: the no-fault path draws nothing
  // from the fault RNG and stays byte-identical to the two-argument form.
  if (faults.any()) {
    faults_ = std::make_unique<FaultInjector>(faults, config.seed, nnodes_);
  }
}

double ClusterNetwork::host_packet_factor(int node) const {
  // Two active ranks on the node contend for the kernel stack.
  const int first_rank = node * config_.cpus_per_node;
  const int ranks_on_node =
      std::min(config_.cpus_per_node, config_.nranks - first_rank);
  return ranks_on_node >= 2 ? params_.smp_host_penalty : 1.0;
}

MessageTiming ClusterNetwork::intra_node(int src, int dst, std::size_t bytes,
                                         double t_send) {
  MessageTiming t;
  if (params_.loopback_through_stack) {
    // TCP loopback: the kernel stack is exercised end-to-end, including
    // per-packet costs and the interrupt CPU, just without the wire.
    const double factor = host_packet_factor(node_of(src));
    const auto packets = static_cast<double>(packets_for(bytes));
    t.sender_busy = factor * (params_.send_overhead +
                              packets * params_.packet_cost_send) +
                    static_cast<double>(bytes) / params_.shm_bandwidth;
    const double rx_cost =
        factor *
        (params_.recv_overhead + packets * params_.packet_cost_recv);
    auto& irq = nodes_[static_cast<std::size_t>(node_of(dst))].irq_cpu;
    const sim::Interval rx = irq.acquire(t_send + t.sender_busy, rx_cost);
    t.arrival = rx.end;
  } else {
    // Shared-memory driver (SCore, GM): a handshake plus a memcpy.
    t.sender_busy = params_.shm_overhead +
                    static_cast<double>(bytes) / params_.shm_bandwidth;
    t.arrival = t_send + t.sender_busy + params_.shm_overhead;
  }
  t.recv_copy = static_cast<double>(bytes) / params_.copy_bandwidth;
  (void)src;
  (void)dst;
  return t;
}

MessageTiming ClusterNetwork::cross_node(int src, int dst, std::size_t bytes,
                                         double t_send, bool exchange) {
  MessageTiming t;
  const int src_node = node_of(src);
  const int dst_node = node_of(dst);
  auto& sres = nodes_[static_cast<std::size_t>(src_node)];
  auto& dres = nodes_[static_cast<std::size_t>(dst_node)];
  const auto packets = static_cast<double>(packets_for(bytes));

  // Sender host work (protocol stack / descriptor posting).
  const double send_factor = host_packet_factor(src_node);
  t.sender_busy =
      send_factor *
      (params_.send_overhead + packets * params_.packet_cost_send);

  // Outbound link occupancy. Wire time may be inflated by a flow-control
  // incident (TCP only) and by the SMP interrupt-routing bottleneck when
  // either endpoint node runs two ranks.
  double wire = static_cast<double>(bytes) / params_.bandwidth;
  if (exchange) wire *= params_.duplex_exchange_factor;
  if (params_.smp_bandwidth_factor < 1.0 &&
      (host_packet_factor(src_node) > 1.0 ||
       host_packet_factor(dst_node) > 1.0)) {
    wire /= params_.smp_bandwidth_factor;
  }
  double extra_latency = 0.0;
  if (params_.jitter_prob_per_rank > 0.0 &&
      config_.nranks >= params_.jitter_min_ranks) {
    const double prob = params_.jitter_prob_per_rank *
                        (config_.nranks - params_.jitter_min_ranks + 1);
    if (jitter_rng_.uniform() < std::min(prob, 0.9)) {
      wire *= 1.0 + jitter_rng_.exponential(params_.jitter_slowdown_mean);
      extra_latency = jitter_rng_.exponential(params_.jitter_latency_mean);
    }
  }
  if (faults_) {
    // Loss recovery and link degradation: retransmitted copies re-occupy
    // the wire (extra_wire), recovery waits and added latency delay the
    // arrival without holding the link (extra_latency).
    const FaultInjector::LinkEffect fx = faults_->perturb_link(
        src_node, dst_node, bytes, packets_for(bytes), params_.mtu,
        params_.bandwidth, params_.latency, wire);
    wire += fx.extra_wire;
    extra_latency += fx.extra_latency;
    t.fault_delay += fx.total_delay();
    t.retrans_bytes = fx.retrans_bytes;
    t.retransmits = fx.retransmits;
  }

  const double cpu_done = t_send + t.sender_busy;
  const sim::Interval tx = sres.nic_tx.acquire(cpu_done, wire);
  // Back-pressure: the sender's send() blocks until the NIC queue drains
  // below the socket-buffer window.
  t.sender_stall =
      std::max(0.0, tx.begin - cpu_done - params_.send_buffer_time);

  // Fabric traversal between the sender's and receiver's edge (fat-tree
  // uplink/downlink, torus hop chain). On the single switch this is a
  // no-op — fabric_end == tx.end and t.wire_time stays the nominal wire
  // occupancy — so the paper's model is bit-identical.
  double fabric_end = tx.end;
  double fabric_wire = 0.0;
  if (!topology_->single()) {
    const Topology::Traverse tv = topology_->traverse(
        src_node, dst_node, tx.end, wire, params_.latency);
    fabric_end = tv.ready;
    fabric_wire = tv.hop_wire;
  }

  // Inbound link occupancy at the destination models incast contention:
  // concurrent senders serialize on the receiver's link. The occupancy
  // request is the first-bit arrival; clamp it so inbound occupancy can
  // never begin before the first bit left the sender (tx.begin), whatever
  // the latency/jitter arithmetic produced.
  const double rx_wire_start = fabric_end + params_.latency + extra_latency;
  const sim::Interval rx_wire =
      dres.nic_rx.acquire(std::max(rx_wire_start - wire, tx.begin), wire);
  // rx_wire.end >= tx.end + latency; equality when the inbound link is idle.

  // Receiver-side protocol work. For TCP this serializes on the node's
  // interrupt-handling CPU (only one CPU services NIC interrupts).
  const double recv_factor = host_packet_factor(dst_node);
  const double rx_cost =
      recv_factor *
      (params_.recv_overhead + packets * params_.packet_cost_recv);
  if (params_.rx_uses_interrupt_cpu) {
    const sim::Interval rx = dres.irq_cpu.acquire(rx_wire.end, rx_cost);
    t.arrival = rx.end;
  } else {
    t.arrival = rx_wire.end + rx_cost;
  }
  t.recv_copy = static_cast<double>(bytes) / params_.copy_bandwidth;
  t.wire_time = wire + fabric_wire;
  return t;
}

MessageTiming ClusterNetwork::message(int src, int dst, std::size_t bytes,
                                      double t_send, bool exchange) {
  REPRO_REQUIRE(src >= 0 && src < config_.nranks, "message: bad src rank");
  REPRO_REQUIRE(dst >= 0 && dst < config_.nranks, "message: bad dst rank");
  REPRO_REQUIRE(src != dst, "message: src == dst (self-sends are local)");
  // A stalled sender cannot issue the send until its node unfreezes; the
  // wait is back-pressure-like from the caller's point of view.
  double t_start = t_send;
  if (faults_) {
    t_start = faults_->stall_release(node_of(src), t_send);
  }
  MessageTiming t = same_node(src, dst)
                        ? intra_node(src, dst, bytes, t_start)
                        : cross_node(src, dst, bytes, t_start, exchange);
  if (t_start > t_send) {
    t.sender_stall += t_start - t_send;
    t.fault_delay += t_start - t_send;
  }
  if (faults_) {
    // A stalled receiver does not drain its NIC: the message only becomes
    // matchable once the destination node unfreezes.
    const double released = faults_->stall_release(node_of(dst), t.arrival);
    if (released > t.arrival) {
      t.fault_delay += released - t.arrival;
      t.arrival = released;
    }
  }
  REPRO_REQUIRE(t.arrival >= t_send, "message arrival precedes send");
  ChannelState& ch = channels_[channel_key(src, dst)];
  ++ch.stats.messages;
  ch.stats.bytes += static_cast<double>(bytes);
  ch.stats.stall_time += t.sender_stall;
  ch.stats.wire_time += t.wire_time;
  if (t.arrival <= ch.last_arrival) t.arrival = ch.last_arrival + 1e-12;
  ch.last_arrival = t.arrival;
  return t;
}

void ClusterNetwork::for_each_channel(
    const std::function<void(int src, int dst, const ChannelStats&)>& fn)
    const {
  std::vector<std::uint64_t> keys;
  keys.reserve(channels_.size());
  for (const auto& [key, state] : channels_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    fn(static_cast<int>(key >> 32),
       static_cast<int>(key & 0xffffffffu),
       channels_.at(key).stats);
  }
}

}  // namespace repro::net

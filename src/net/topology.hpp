// Hierarchical cluster topologies: how cross-node messages travel between
// nodes, beyond the paper's single 16-port switch.
//
// The 2002 study stops at 16 nodes on one switch, where every node pair is
// one switch hop apart and the only shared resources are the endpoint NICs.
// Scaling the simulated cluster to hundreds or thousands of nodes makes the
// *fabric* a first-class factor: a two-level fat-tree shares oversubscribed
// uplinks between edge switches, and a torus routes messages over chains of
// node-to-node links. Both are modeled as per-hop sim::Resource occupancy
// between the sender's NIC and the receiver's NIC, so fabric contention
// (uplink saturation, torus path collisions) emerges from the same FIFO
// resource model as NIC back-pressure and incast.
//
// The single-switch topology is the default and is *bit-identical* to the
// pre-topology model: no hop resources exist and the message timing
// arithmetic is untouched (fig2–fig9 goldens pin this).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/resource.hpp"

namespace repro::net {

enum class TopologyKind {
  kSingleSwitch,  // every node one hop from every other (the paper's CoPs)
  kFatTree,       // two-level: edge switches + oversubscribed core uplinks
  kTorus,         // k-ary n-cube, dimension-ordered routing with wraparound
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kSingleSwitch;

  // --- fat-tree ---------------------------------------------------------
  int radix = 16;  // nodes per edge switch (downlink ports)
  // Uplink oversubscription: the edge→core uplink carries the traffic of
  // `radix` nodes over bandwidth/oversubscription, so a message crossing
  // switches occupies the uplink for oversubscription × its wire time.
  // 1.0 = full bisection bandwidth.
  double oversubscription = 1.0;

  // --- torus ------------------------------------------------------------
  // Grid extents. 0 means "derive": x = ceil(sqrt(nnodes)), y = what is
  // needed to cover nnodes, z = 1 (a 2-D torus).
  int torus_x = 0;
  int torus_y = 0;
  int torus_z = 0;

  bool single() const { return kind == TopologyKind::kSingleSwitch; }

  // Throws util::Error when a parameter is out of range, or (when
  // nnodes >= 0) when a fixed torus grid is too small for the cluster.
  void validate(int nnodes = -1) const;
};

// Parses the CLI mini-language:
//   single
//   fattree[:radix=N][,over=F]
//   torus[:x=N][,y=N][,z=N]
// An empty option ("fattree:", a stray ',') is malformed. Throws
// util::Error on malformed input.
TopologySpec parse_topology_spec(const std::string& text);

// Canonical spec string (round-trips through parse_topology_spec).
std::string to_string(const TopologySpec& spec);

// The fabric of one simulated cluster: owns the per-hop link resources and
// computes the path of a cross-node message. Constructed by ClusterNetwork;
// all calls happen on the serialized engine path (no locking, FIFO
// resources exact — same contract as the NIC resources).
class Topology {
 public:
  // Validates the spec against the node count; throws util::Error.
  Topology(const TopologySpec& spec, int nnodes);

  const TopologySpec& spec() const { return spec_; }
  bool single() const { return spec_.single(); }

  // Number of fabric hops between two distinct nodes (0 on the single
  // switch, where the one crossbar hop is folded into the wire latency;
  // 0 within a fat-tree edge switch, 2 across; Manhattan wrap distance on
  // the torus).
  int hops(int src_node, int dst_node) const;

  // Routes one message through the fabric: occupies every hop link in
  // path order (store-and-forward: each hop starts one `hop_latency`
  // after the previous hop's last bit) and returns when the last bit
  // clears the final hop, plus the total extra link occupancy incurred.
  // `wire` is the message's nominal single-link occupancy. On the single
  // switch this is a no-op returning {start, 0, 0}.
  struct Traverse {
    double ready = 0.0;     // when the last bit clears the final hop
    double hop_wire = 0.0;  // summed fabric-link occupancy (seconds)
    int hops = 0;
  };
  Traverse traverse(int src_node, int dst_node, double start, double wire,
                    double hop_latency);

  // Per-hop fabric links (edge-switch uplinks/downlinks, torus links) for
  // utilization reporting; empty on the single switch. Pointers stay valid
  // for the topology's lifetime.
  const std::vector<const sim::Resource*>& links() const { return links_; }

  // Edge switch of a node (fat-tree), torus coordinates of a node.
  int edge_switch_of(int node) const { return node / spec_.radix; }

 private:
  sim::Resource& link(std::size_t index);

  TopologySpec spec_;
  int nnodes_ = 0;
  // Resolved torus extents (spec zeros replaced by derived values).
  int tx_ = 1;
  int ty_ = 1;
  int tz_ = 1;
  // Link storage. Fat-tree: [2 * s] = switch s uplink, [2 * s + 1] =
  // switch s downlink. Torus: [6 * node + d] with d in {+x,-x,+y,-y,+z,-z}.
  std::vector<std::unique_ptr<sim::Resource>> link_storage_;
  std::vector<const sim::Resource*> links_;
};

}  // namespace repro::net

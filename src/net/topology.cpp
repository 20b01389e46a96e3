#include "net/topology.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::net {

namespace {

const char* kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSingleSwitch:
      return "single";
    case TopologyKind::kFatTree:
      return "fattree";
    case TopologyKind::kTorus:
      return "torus";
  }
  return "?";
}

}  // namespace

void TopologySpec::validate(int nnodes) const {
  switch (kind) {
    case TopologyKind::kSingleSwitch:
      return;
    case TopologyKind::kFatTree:
      REPRO_REQUIRE(radix >= 1, "fat-tree radix must be >= 1");
      REPRO_REQUIRE(oversubscription >= 1.0,
                    "fat-tree oversubscription must be >= 1 (1 = full "
                    "bisection bandwidth)");
      return;
    case TopologyKind::kTorus: {
      REPRO_REQUIRE(torus_x >= 0 && torus_y >= 0 && torus_z >= 0,
                    "torus extents must be nonnegative (0 = derive)");
      const bool fixed = torus_x > 0 || torus_y > 0 || torus_z > 0;
      if (fixed && nnodes >= 0) {
        const long cap = static_cast<long>(std::max(torus_x, 1)) *
                         std::max(torus_y, 1) * std::max(torus_z, 1);
        REPRO_REQUIRE(cap >= nnodes,
                      "torus grid is smaller than the cluster (" +
                          std::to_string(cap) + " slots for " +
                          std::to_string(nnodes) + " nodes)");
      }
      return;
    }
  }
}

TopologySpec parse_topology_spec(const std::string& text) {
  TopologySpec spec;
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  if (kind == "single") {
    spec.kind = TopologyKind::kSingleSwitch;
  } else if (kind == "fattree") {
    spec.kind = TopologyKind::kFatTree;
  } else if (kind == "torus") {
    spec.kind = TopologyKind::kTorus;
  } else {
    throw util::Error("topology spec: unknown kind '" + kind +
                      "' (expected single, fattree or torus)");
  }
  if (colon == std::string::npos) {
    spec.validate();
    return spec;
  }
  if (spec.single()) {
    throw util::Error("topology spec: 'single' takes no options");
  }
  // Ranges are TopologySpec::validate's job.
  const bool fattree = spec.kind == TopologyKind::kFatTree;
  for (const std::string_view option :
       util::split(std::string_view(text).substr(colon + 1), ',')) {
    const auto [key, value, has_value] = util::key_value(option);
    if (!has_value) {
      throw util::Error("topology spec: expected key=value, got '" +
                        std::string(option) + "'");
    }
    if (fattree && key == "radix") {
      spec.radix = util::int_field("topology", key, value);
    } else if (fattree && key == "over") {
      spec.oversubscription = util::real_field("topology", key, value);
    } else if (!fattree && key == "x") {
      spec.torus_x = util::int_field("topology", key, value);
    } else if (!fattree && key == "y") {
      spec.torus_y = util::int_field("topology", key, value);
    } else if (!fattree && key == "z") {
      spec.torus_z = util::int_field("topology", key, value);
    } else {
      throw util::Error("topology spec: unknown option '" + std::string(key) +
                        "' for " + kind_name(spec.kind));
    }
  }
  spec.validate();
  return spec;
}

std::string to_string(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kSingleSwitch:
      return "single";
    case TopologyKind::kFatTree: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "fattree:radix=%d,over=%g", spec.radix,
                    spec.oversubscription);
      return buf;
    }
    case TopologyKind::kTorus: {
      if (spec.torus_x == 0 && spec.torus_y == 0 && spec.torus_z == 0) {
        return "torus";
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "torus:x=%d,y=%d,z=%d", spec.torus_x,
                    spec.torus_y, spec.torus_z);
      return buf;
    }
  }
  return "?";
}

Topology::Topology(const TopologySpec& spec, int nnodes)
    : spec_(spec), nnodes_(nnodes) {
  spec_.validate(nnodes);
  REPRO_REQUIRE(nnodes >= 1, "topology needs at least one node");
  switch (spec_.kind) {
    case TopologyKind::kSingleSwitch:
      return;
    case TopologyKind::kFatTree: {
      const int nswitches = (nnodes + spec_.radix - 1) / spec_.radix;
      link_storage_.reserve(static_cast<std::size_t>(nswitches) * 2);
      for (int s = 0; s < nswitches; ++s) {
        const std::string prefix = "sw" + std::to_string(s) + "/";
        link_storage_.push_back(
            std::make_unique<sim::Resource>(prefix + "up"));
        link_storage_.push_back(
            std::make_unique<sim::Resource>(prefix + "down"));
      }
      break;
    }
    case TopologyKind::kTorus: {
      // Resolve the grid: derived tori are near-square and 2-D, which
      // keeps link counts and route lengths predictable.
      tx_ = spec_.torus_x;
      ty_ = spec_.torus_y;
      tz_ = spec_.torus_z;
      if (tx_ == 0 && ty_ == 0 && tz_ == 0) {
        tx_ = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(nnodes))));
        ty_ = (nnodes + tx_ - 1) / tx_;
        tz_ = 1;
      } else {
        tx_ = std::max(tx_, 1);
        ty_ = std::max(ty_, 1);
        tz_ = std::max(tz_, 1);
      }
      // 6 directed links per grid slot (+x,-x,+y,-y,+z,-z). Links exist
      // for every slot, not just populated nodes: a route between real
      // nodes may pass through an empty slot of a non-full grid (its
      // switch hardware exists even when no node is attached). Unused
      // directions in flat dimensions simply never see traffic.
      const int slots = tx_ * ty_ * tz_;
      link_storage_.reserve(static_cast<std::size_t>(slots) * 6);
      static const char* kDir[6] = {"+x", "-x", "+y", "-y", "+z", "-z"};
      for (int n = 0; n < slots; ++n) {
        const std::string prefix = "torus/n" + std::to_string(n) + "/";
        for (int d = 0; d < 6; ++d) {
          link_storage_.push_back(
              std::make_unique<sim::Resource>(prefix + kDir[d]));
        }
      }
      break;
    }
  }
  links_.reserve(link_storage_.size());
  for (const auto& l : link_storage_) links_.push_back(l.get());
}

sim::Resource& Topology::link(std::size_t index) {
  return *link_storage_[index];
}

int Topology::hops(int src_node, int dst_node) const {
  if (src_node == dst_node) return 0;
  switch (spec_.kind) {
    case TopologyKind::kSingleSwitch:
      return 0;
    case TopologyKind::kFatTree:
      return edge_switch_of(src_node) == edge_switch_of(dst_node) ? 0 : 2;
    case TopologyKind::kTorus: {
      int total = 0;
      int a = src_node;
      int b = dst_node;
      const int dims[3] = {tx_, ty_, tz_};
      for (int k : dims) {
        const int ca = a % k;
        const int cb = b % k;
        a /= k;
        b /= k;
        const int fwd = (cb - ca + k) % k;
        total += std::min(fwd, k - fwd);
      }
      return total;
    }
  }
  return 0;
}

Topology::Traverse Topology::traverse(int src_node, int dst_node,
                                      double start, double wire,
                                      double hop_latency) {
  Traverse t;
  t.ready = start;
  if (src_node == dst_node) return t;
  switch (spec_.kind) {
    case TopologyKind::kSingleSwitch:
      return t;
    case TopologyKind::kFatTree: {
      const int s1 = edge_switch_of(src_node);
      const int s2 = edge_switch_of(dst_node);
      // Same edge switch: one crossbar hop, identical to the single-switch
      // model (its latency is already folded into NetworkParams::latency).
      if (s1 == s2) return t;
      // Up through the (oversubscribed) uplink, across the core, down
      // through the destination switch's downlink. Store-and-forward: each
      // stage begins one switch latency after the previous stage's last
      // bit.
      const double up_wire = wire * spec_.oversubscription;
      const sim::Interval up =
          link(static_cast<std::size_t>(s1) * 2)
              .acquire(t.ready + hop_latency, up_wire);
      const sim::Interval down =
          link(static_cast<std::size_t>(s2) * 2 + 1)
              .acquire(up.end + hop_latency, wire);
      t.ready = down.end;
      t.hop_wire = up_wire + wire;
      t.hops = 2;
      return t;
    }
    case TopologyKind::kTorus: {
      // Dimension-ordered routing: correct x, then y, then z, taking the
      // shorter way around each ring (positive direction on an exact tie).
      int cur = src_node;
      int cx = cur % tx_;
      int cy = (cur / tx_) % ty_;
      int cz = cur / (tx_ * ty_);
      int dx = dst_node % tx_;
      int dy = (dst_node / tx_) % ty_;
      int dz = dst_node / (tx_ * ty_);
      struct Dim {
        int* cur;
        int dst;
        int extent;
        int plus_dir;  // link index offset for the positive direction
        int stride;    // node-index stride of one positive step
      };
      int strides[3] = {1, tx_, tx_ * ty_};
      Dim dims[3] = {{&cx, dx, tx_, 0, strides[0]},
                     {&cy, dy, ty_, 2, strides[1]},
                     {&cz, dz, tz_, 4, strides[2]}};
      for (const Dim& d : dims) {
        while (*d.cur != d.dst) {
          const int fwd = (d.dst - *d.cur + d.extent) % d.extent;
          const bool positive = fwd <= d.extent - fwd;
          const int dir = d.plus_dir + (positive ? 0 : 1);
          const sim::Interval hop =
              link(static_cast<std::size_t>(cur) * 6 +
                   static_cast<std::size_t>(dir))
                  .acquire(t.ready + hop_latency, wire);
          t.ready = hop.end;
          t.hop_wire += wire;
          ++t.hops;
          *d.cur = positive ? (*d.cur + 1) % d.extent
                            : (*d.cur - 1 + d.extent) % d.extent;
          cur += positive ? d.stride : -d.stride;
          if (positive && *d.cur == 0) cur -= d.extent * d.stride;
          if (!positive && *d.cur == d.extent - 1) cur += d.extent * d.stride;
        }
      }
      return t;
    }
  }
  return t;
}

}  // namespace repro::net

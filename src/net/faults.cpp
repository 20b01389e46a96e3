#include "net/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::net {

namespace {

// %g, with more digits only where six would not parse back to `v`: a
// rounded value can leave validate's range (loss=0.9999999 as loss=1).
std::string num(double v) {
  char buf[32];
  for (int digits = 6; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (util::parse_double(buf) == v) break;
  }
  return buf;
}

}  // namespace

void FaultSpec::validate(int nnodes) const {
  auto check_node = [nnodes](int node, const char* what) {
    REPRO_REQUIRE(node >= 0, std::string(what) + ": negative node index");
    REPRO_REQUIRE(nnodes < 0 || node < nnodes,
                  std::string(what) + ": node index beyond the cluster");
  };
  for (const PacketLossFault& f : packet_loss) {
    REPRO_REQUIRE(f.loss_prob >= 0.0 && f.loss_prob < 1.0,
                  "packet loss probability must be in [0, 1)");
    REPRO_REQUIRE(f.rto > 0.0, "retransmission timeout must be positive");
    REPRO_REQUIRE(f.rto_backoff >= 1.0, "RTO backoff must be >= 1");
    REPRO_REQUIRE(f.max_retries >= 1 && f.max_retries <= 64,
                  "max_retries must be in [1, 64]");
  }
  for (const LinkDegradation& d : degraded_links) {
    check_node(d.node_a, "degraded link");
    check_node(d.node_b, "degraded link");
    REPRO_REQUIRE(d.bandwidth_factor > 0.0 && d.bandwidth_factor <= 1.0,
                  "degradation bandwidth factor must be in (0, 1]");
    REPRO_REQUIRE(d.extra_latency >= 0.0,
                  "degradation extra latency must be nonnegative");
  }
  for (const Straggler& s : stragglers) {
    check_node(s.node, "straggler");
    REPRO_REQUIRE(s.compute_factor >= 1.0,
                  "straggler compute factor must be >= 1");
    REPRO_REQUIRE(s.noise_period >= 0.0 && s.noise_duration >= 0.0,
                  "straggler noise period/duration must be nonnegative");
    REPRO_REQUIRE(s.noise_duration == 0.0 || s.noise_period > 0.0,
                  "straggler noise duration needs a positive period");
  }
  for (const NodeStall& s : stalls) {
    check_node(s.node, "node stall");
    REPRO_REQUIRE(s.at >= 0.0, "stall window start must be nonnegative");
    REPRO_REQUIRE(s.duration > 0.0, "stall window must have positive length");
  }
}

FaultInjector::FaultInjector(const FaultSpec& spec, std::uint64_t seed,
                             int nnodes)
    : spec_(spec),
      nnodes_(nnodes),
      rng_(util::mix_seed(seed, 0x6661756c74ULL /* "fault" */,
                          static_cast<std::uint64_t>(nnodes))) {
  REPRO_REQUIRE(nnodes >= 1, "fault injector needs at least one node");
  spec_.validate(nnodes);
  straggler_of_.assign(static_cast<std::size_t>(nnodes), nullptr);
  for (const Straggler& s : spec_.stragglers) {
    straggler_of_[static_cast<std::size_t>(s.node)] = &s;
  }
}

const LinkDegradation* FaultInjector::degradation_for(int a, int b) const {
  for (const LinkDegradation& d : spec_.degraded_links) {
    if ((d.node_a == a && d.node_b == b) ||
        (d.node_a == b && d.node_b == a)) {
      return &d;
    }
  }
  return nullptr;
}

FaultInjector::LinkEffect FaultInjector::perturb_link(
    int src_node, int dst_node, std::size_t bytes, std::size_t packets,
    std::size_t mtu, double bandwidth, double latency, double nominal_wire) {
  LinkEffect fx;

  // Persistent degradation first: it also slows retransmitted packets.
  double eff_bandwidth = bandwidth;
  if (const LinkDegradation* d = degradation_for(src_node, dst_node)) {
    eff_bandwidth = bandwidth * d->bandwidth_factor;
    fx.extra_wire += nominal_wire * (1.0 / d->bandwidth_factor - 1.0);
    fx.extra_latency += d->extra_latency;
    ++counters_.degraded_messages;
    counters_.degradation_delay += fx.extra_wire + d->extra_latency;
  }

  for (const PacketLossFault& loss : spec_.packet_loss) {
    if (loss.loss_prob <= 0.0) continue;
    for (std::size_t k = 0; k < packets; ++k) {
      // Bytes in this packet (the tail packet may be short).
      const std::size_t pkt_bytes =
          std::min(mtu, bytes > k * mtu ? bytes - k * mtu : std::size_t{0});
      double rto = loss.rto;
      for (int attempt = 0; attempt < loss.max_retries; ++attempt) {
        if (rng_.uniform() >= loss.loss_prob) break;  // delivered
        ++counters_.packets_lost;
        ++counters_.retransmits;
        ++fx.retransmits;
        const double resent = static_cast<double>(std::max<std::size_t>(
            pkt_bytes, 1));
        counters_.retransmitted_bytes += resent;
        fx.retrans_bytes += resent;
        // The retransmitted copy re-occupies the wire...
        fx.extra_wire += resent / eff_bandwidth;
        // ...after the recovery discipline noticed the loss.
        double wait = 0.0;
        switch (loss.recovery) {
          case PacketLossFault::Recovery::kTimeoutRetransmit:
            wait = rto;
            rto *= loss.rto_backoff;
            break;
          case PacketLossFault::Recovery::kLinkLevel:
            // One link round trip: the NACK comes back, the source
            // hardware resends. The host never blocks.
            wait = 2.0 * latency;
            break;
        }
        fx.extra_latency += wait;
        counters_.retransmit_delay += wait + resent / eff_bandwidth;
      }
    }
  }
  return fx;
}

double FaultInjector::stall_release(int node, double t) {
  // Fixed point over the (unsorted) windows: leaving one window may land
  // inside another, so rescan until the release time stops moving.
  double release = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const NodeStall& s : spec_.stalls) {
      if (s.node != node) continue;
      const double end = s.at + s.duration;
      if (release >= s.at && release < end) {
        ++counters_.stall_events;
        counters_.stall_delay += end - release;
        release = end;
        moved = true;
      }
    }
  }
  return release;
}

double FaultInjector::perturb_compute(int node, double t, double duration) {
  double extra = 0.0;
  if (const Straggler* s = straggler_of_[static_cast<std::size_t>(node)]) {
    if (s->compute_factor > 1.0) {
      const double slow = duration * (s->compute_factor - 1.0);
      extra += slow;
      counters_.straggler_delay += slow;
    }
    if (s->noise_period > 0.0 && s->noise_duration > 0.0) {
      // Bursts tick at k * period, phase-shifted per node so stragglers
      // do not pause in lockstep (that would be a barrier, not noise).
      const double phase =
          s->noise_period *
          (static_cast<double>(node % 7) / 7.0);
      const double begin = t - phase;
      const double end = t + duration + extra - phase;
      const auto first =
          static_cast<std::int64_t>(std::ceil(begin / s->noise_period));
      const auto last =
          static_cast<std::int64_t>(std::floor(end / s->noise_period));
      if (last >= first) {
        const auto bursts = static_cast<std::uint64_t>(last - first + 1);
        counters_.noise_bursts += bursts;
        const double stolen = static_cast<double>(bursts) * s->noise_duration;
        counters_.noise_delay += stolen;
        extra += stolen;
      }
    }
  }
  // A stall window overlapping the region freezes it for the overlap.
  for (const NodeStall& s : spec_.stalls) {
    if (s.node != node) continue;
    const double end = t + duration + extra;
    const double overlap =
        std::min(end, s.at + s.duration) - std::max(t, s.at);
    if (overlap > 0.0) {
      ++counters_.stall_events;
      counters_.stall_delay += overlap;
      extra += overlap;
    }
  }
  return extra;
}

void FaultInjector::attribute(int component_class, double delay) {
  REPRO_REQUIRE(component_class >= 0 && component_class < kFaultAbsorbClasses,
                "fault attribution: bad component class");
  counters_.absorbed[static_cast<std::size_t>(component_class)] += delay;
}

// --- spec parsing ----------------------------------------------------------

// Ranges are FaultSpec::validate's job; the field parsers only insist on
// an int or a finite decimal number.
FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  for (const std::string_view clause : util::split(text, ';')) {
    const std::vector<std::string_view> tokens = util::split(clause, ',');
    const util::KeyValue head = util::key_value(tokens[0]);
    const std::string_view kind = head.key;
    PacketLossFault loss;
    LinkDegradation link;
    Straggler straggler;
    NodeStall stall;
    if (kind == "loss") {
      loss.loss_prob =
          util::real_field("fault", "loss probability", head.value);
    } else if (kind == "degrade") {
      const std::size_t dash = head.value.find('-');
      if (dash == std::string_view::npos) {
        throw util::Error("fault spec: degrade needs a node pair A-B, got '" +
                          std::string(head.value) + "'");
      }
      link.node_a = util::int_field("fault", "degrade node",
                                    head.value.substr(0, dash));
      link.node_b = util::int_field("fault", "degrade node",
                                    head.value.substr(dash + 1));
    } else if (kind == "straggler") {
      straggler.node = util::int_field("fault", "straggler node", head.value);
    } else if (kind == "stall") {
      stall.node = util::int_field("fault", "stall node", head.value);
    } else {
      throw util::Error("fault spec: unknown clause '" + std::string(kind) +
                        "' (expected loss/degrade/straggler/stall)");
    }
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto [key, value, has_value] = util::key_value(tokens[i]);
      if (kind == "loss" && key == "rto") {
        loss.rto = util::real_field("fault", "rto", value);
      } else if (kind == "loss" && key == "backoff") {
        loss.rto_backoff = util::real_field("fault", "backoff", value);
      } else if (kind == "loss" && key == "retries") {
        loss.max_retries = util::int_field("fault", "retries", value);
      } else if (kind == "loss" && key == "recovery" && value == "timeout") {
        loss.recovery = PacketLossFault::Recovery::kTimeoutRetransmit;
      } else if (kind == "loss" && key == "recovery" &&
                 value == "linklevel") {
        loss.recovery = PacketLossFault::Recovery::kLinkLevel;
      } else if (kind == "loss" && key == "recovery") {
        throw util::Error("fault spec: recovery must be 'timeout' or "
                          "'linklevel', got '" + std::string(value) + "'");
      } else if (kind == "degrade" && key == "bw") {
        link.bandwidth_factor = util::real_field("fault", "bw", value);
      } else if (kind == "degrade" && key == "lat") {
        link.extra_latency = util::real_field("fault", "lat", value);
      } else if (kind == "straggler" && key == "x") {
        straggler.compute_factor =
            util::real_field("fault", "straggler factor", value);
      } else if (kind == "straggler" && key == "period") {
        straggler.noise_period =
            util::real_field("fault", "noise period", value);
      } else if (kind == "straggler" && key == "dur") {
        straggler.noise_duration =
            util::real_field("fault", "noise duration", value);
      } else if (kind == "stall" && key == "at") {
        stall.at = util::real_field("fault", "stall start", value);
      } else if (kind == "stall" && key == "dur") {
        stall.duration = util::real_field("fault", "stall duration", value);
      } else {
        throw util::Error("fault spec: unknown modifier '" +
                          std::string(key) + "' in '" + std::string(clause) +
                          "'");
      }
    }
    if (kind == "loss") spec.packet_loss.push_back(loss);
    if (kind == "degrade") spec.degraded_links.push_back(link);
    if (kind == "straggler") spec.stragglers.push_back(straggler);
    if (kind == "stall") spec.stalls.push_back(stall);
  }
  spec.validate();
  return spec;
}

std::string to_string(const FaultSpec& spec) {
  std::string out;
  auto clause = [&](const std::string& s) {
    if (!out.empty()) out += ';';
    out += s;
  };
  for (const PacketLossFault& f : spec.packet_loss) {
    std::string s = "loss=" + num(f.loss_prob) + ",rto=" + num(f.rto) +
                    ",backoff=" + num(f.rto_backoff) +
                    ",retries=" + std::to_string(f.max_retries) +
                    ",recovery=";
    s += f.recovery == PacketLossFault::Recovery::kTimeoutRetransmit
             ? "timeout"
             : "linklevel";
    clause(s);
  }
  for (const LinkDegradation& d : spec.degraded_links) {
    clause("degrade=" + std::to_string(d.node_a) + "-" +
           std::to_string(d.node_b) + ",bw=" + num(d.bandwidth_factor) +
           ",lat=" + num(d.extra_latency));
  }
  for (const Straggler& s : spec.stragglers) {
    clause("straggler=" + std::to_string(s.node) + ",x=" +
           num(s.compute_factor) + ",period=" + num(s.noise_period) +
           ",dur=" + num(s.noise_duration));
  }
  for (const NodeStall& s : spec.stalls) {
    clause("stall=" + std::to_string(s.node) + ",at=" + num(s.at) +
           ",dur=" + num(s.duration));
  }
  return out;
}

}  // namespace repro::net

#include "net/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::net {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
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
      // Payload of this packet (the tail packet may be short).
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

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

// Ranges are FaultSpec::validate's job; this only insists on a finite
// decimal number.
double parse_double(const std::string& text, const std::string& what) {
  const std::optional<double> v = util::parse_double(text);
  if (!v) {
    throw util::Error("fault spec: " + what +
                      " must be a finite decimal number: '" + text + "'");
  }
  return *v;
}

// Ranges are FaultSpec::validate's job; this only insists on an int.
int parse_int(const std::string& text, const std::string& what) {
  const std::optional<int> v =
      util::parse_int(text, std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max());
  if (!v) {
    throw util::Error("fault spec: " + what + " must be an integer: '" +
                      text + "'");
  }
  return *v;
}

// "key=value" -> {key, value}; a bare word parses as {word, ""}.
std::pair<std::string, std::string> key_value(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) continue;
    const std::vector<std::string> tokens = split(clause, ',');
    const auto [head, head_value] = key_value(tokens[0]);

    auto modifiers = [&](auto&& handle) {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = key_value(tokens[i]);
        REPRO_REQUIRE(handle(key, value),
                      "fault spec: unknown modifier '" + key + "' in '" +
                          clause + "'");
      }
    };

    if (head == "loss") {
      PacketLossFault f;
      f.loss_prob = parse_double(head_value, "loss probability");
      modifiers([&](const std::string& key, const std::string& value) {
        if (key == "rto") {
          f.rto = parse_double(value, "rto");
        } else if (key == "backoff") {
          f.rto_backoff = parse_double(value, "backoff");
        } else if (key == "retries") {
          f.max_retries = parse_int(value, "retries");
        } else if (key == "recovery") {
          if (value == "timeout") {
            f.recovery = PacketLossFault::Recovery::kTimeoutRetransmit;
          } else if (value == "linklevel") {
            f.recovery = PacketLossFault::Recovery::kLinkLevel;
          } else {
            throw util::Error("fault spec: recovery must be 'timeout' or "
                              "'linklevel', got '" + value + "'");
          }
        } else {
          return false;
        }
        return true;
      });
      spec.packet_loss.push_back(f);
    } else if (head == "degrade") {
      LinkDegradation d;
      const std::size_t dash = head_value.find('-');
      REPRO_REQUIRE(dash != std::string::npos,
                    "fault spec: degrade needs a node pair A-B, got '" +
                        head_value + "'");
      d.node_a = parse_int(head_value.substr(0, dash), "degrade node");
      d.node_b = parse_int(head_value.substr(dash + 1), "degrade node");
      modifiers([&](const std::string& key, const std::string& value) {
        if (key == "bw") {
          d.bandwidth_factor = parse_double(value, "bw");
        } else if (key == "lat") {
          d.extra_latency = parse_double(value, "lat");
        } else {
          return false;
        }
        return true;
      });
      spec.degraded_links.push_back(d);
    } else if (head == "straggler") {
      Straggler s;
      s.node = parse_int(head_value, "straggler node");
      modifiers([&](const std::string& key, const std::string& value) {
        if (key == "x") {
          s.compute_factor = parse_double(value, "straggler factor");
        } else if (key == "period") {
          s.noise_period = parse_double(value, "noise period");
        } else if (key == "dur") {
          s.noise_duration = parse_double(value, "noise duration");
        } else {
          return false;
        }
        return true;
      });
      spec.stragglers.push_back(s);
    } else if (head == "stall") {
      NodeStall s;
      s.node = parse_int(head_value, "stall node");
      modifiers([&](const std::string& key, const std::string& value) {
        if (key == "at") {
          s.at = parse_double(value, "stall start");
        } else if (key == "dur") {
          s.duration = parse_double(value, "stall duration");
        } else {
          return false;
        }
        return true;
      });
      spec.stalls.push_back(s);
    } else {
      throw util::Error("fault spec: unknown clause '" + head +
                        "' (expected loss/degrade/straggler/stall)");
    }
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

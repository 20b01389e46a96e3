// Calibrated parameter sets for the three communication stacks.
//
// Calibration anchors (2001-era measurements on comparable hardware; see
// DESIGN.md §6):
//  - MPICH/TCP on Gigabit Ethernet, Linux 2.4, PIII-1GHz: zero-byte MPI
//    latency ~ 60-120 us, effective point-to-point bandwidth 30-50 MB/s,
//    per-1500B-packet host cost ~ 5-15 us/side, unstable under concurrent
//    flows (flow control / coarse retransmit interactions).
//  - SCore PM/Ethernet: user-level reliable protocol on the same NIC:
//    latency ~ 20 us, stable ~ 70-100 MB/s, small per-packet cost.
//  - MPICH-GM on Myrinet M2F-PCI32C (LANai 4): latency ~ 11-15 us,
//    100-130 MB/s (PCI32-limited), host nearly free (coprocessor handles
//    segmentation/reassembly), large link-level packets.
//
// The absolute values below were then fine-tuned so that the simulated
// reference case reproduces the *scale* of Figure 3 (see EXPERIMENTS.md);
// all qualitative results depend only on the ordering of the stacks.
#include "net/params.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace repro::net {

std::string to_string(Network net) {
  switch (net) {
    case Network::kTcpGigE:
      return "TCP/IP on GigE";
    case Network::kScoreGigE:
      return "SCore on GigE";
    case Network::kMyrinetGM:
      return "Myrinet";
    case Network::kTcpFastEthernet:
      return "TCP/IP on FastE";
  }
  REPRO_UNREACHABLE("bad Network enum value");
}

namespace {

NetworkParams tcp_gige() {
  NetworkParams p;
  p.name = "tcp-gige";
  p.send_overhead = 35e-6;
  p.recv_overhead = 35e-6;
  p.packet_cost_send = 6e-6;
  p.packet_cost_recv = 13e-6;  // interrupt + protocol work per packet
  p.mtu = 1460;
  p.latency = 60e-6;
  // Effective MPICH/TCP streaming rate, not the wire rate: the paper's own
  // finding is that Gigabit Ethernet "did not perform much better than
  // Fast Ethernet" for CHARMM under the TCP stack of the day (§4.1).
  // One-way streaming reaches ~13 MB/s; bidirectional exchanges halve it
  // (duplex_exchange_factor), matching the low per-node rates of Figure 7.
  p.bandwidth = 13e6;
  p.send_buffer_time = 64e3 / 13e6;  // ~64 KB socket buffer
  p.duplex_exchange_factor = 2.0;
  p.shm_overhead = 0.0;               // unused: loopback goes via the stack
  p.shm_bandwidth = 150e6;
  p.loopback_through_stack = true;
  p.rx_uses_interrupt_cpu = true;
  p.smp_host_penalty = 1.9;  // SMP kernel stack contention (Linux 2.4)
  p.smp_bandwidth_factor = 0.35;  // interrupt routing to the wrong CPU
  p.smp_compute_penalty = 1.10;   // shared memory bus
  p.jitter_prob_per_rank = 0.06;
  p.jitter_min_ranks = 4;
  p.jitter_latency_mean = 500e-6;
  p.jitter_slowdown_mean = 2.3;
  p.copy_bandwidth = 150e6;
  return p;
}

NetworkParams score_gige() {
  NetworkParams p;
  p.name = "score-gige";
  p.send_overhead = 9e-6;
  p.recv_overhead = 9e-6;
  p.packet_cost_send = 1.5e-6;
  p.packet_cost_recv = 1.5e-6;
  p.mtu = 1460;
  p.latency = 16e-6;
  p.bandwidth = 55e6;
  p.send_buffer_time = 256e3 / 55e6;
  p.shm_overhead = 2e-6;  // shared-memory driver for intra-node
  p.shm_bandwidth = 280e6;
  p.loopback_through_stack = false;
  p.rx_uses_interrupt_cpu = false;  // user-level protocol, polling
  p.smp_host_penalty = 1.05;
  p.smp_compute_penalty = 1.03;
  p.jitter_prob_per_rank = 0.0;  // reliable PM protocol: stable
  p.copy_bandwidth = 250e6;
  return p;
}

NetworkParams myrinet_gm() {
  NetworkParams p;
  p.name = "myrinet-gm";
  p.send_overhead = 4e-6;
  p.recv_overhead = 4e-6;
  p.packet_cost_send = 0.3e-6;  // LANai coprocessor does the work
  p.packet_cost_recv = 0.3e-6;
  p.mtu = 4096;  // large link-level packets
  p.latency = 11e-6;
  p.bandwidth = 120e6;  // PCI32-limited
  p.send_buffer_time = 1e6 / 120e6;
  p.shm_overhead = 2e-6;  // GM shared-memory intra-node path
  p.shm_bandwidth = 280e6;
  p.loopback_through_stack = false;
  p.rx_uses_interrupt_cpu = false;
  p.smp_host_penalty = 1.05;
  p.smp_compute_penalty = 1.03;
  p.jitter_prob_per_rank = 0.0;  // link-level flow control: stable
  p.copy_bandwidth = 250e6;
  return p;
}

NetworkParams tcp_fast_ethernet() {
  // 100 Mbit/s Ethernet under the same MPICH/TCP stack. The wire tops out
  // at 12.5 MB/s, but the protocol path is identical to the GigE case —
  // and since that path (not the wire) dominates the effective MPI rate,
  // the two behave almost identically for CHARMM (§4.1).
  NetworkParams p = tcp_gige();
  p.name = "tcp-fast-ethernet";
  p.bandwidth = 10.5e6;  // TCP stream on 100 Mbit/s
  p.send_buffer_time = 64e3 / 10.5e6;
  p.latency = 70e-6;
  return p;
}

}  // namespace

void validate_params(const NetworkParams& params) {
  const std::string who =
      params.name.empty() ? std::string("<unnamed>") : params.name;
  REPRO_REQUIRE(params.mtu > 0, "network params '" + who + "': mtu == 0");
  REPRO_REQUIRE(params.bandwidth > 0.0,
                "network params '" + who + "': non-positive bandwidth");
  REPRO_REQUIRE(params.copy_bandwidth > 0.0,
                "network params '" + who + "': non-positive copy_bandwidth");
  REPRO_REQUIRE(params.shm_bandwidth > 0.0,
                "network params '" + who + "': non-positive shm_bandwidth");
  REPRO_REQUIRE(params.latency >= 0.0 && params.send_overhead >= 0.0 &&
                    params.recv_overhead >= 0.0 &&
                    params.packet_cost_send >= 0.0 &&
                    params.packet_cost_recv >= 0.0 &&
                    params.shm_overhead >= 0.0 &&
                    params.send_buffer_time >= 0.0,
                "network params '" + who + "': negative cost");
  REPRO_REQUIRE(params.duplex_exchange_factor >= 1.0,
                "network params '" + who + "': duplex factor < 1");
  REPRO_REQUIRE(params.smp_host_penalty >= 1.0 &&
                    params.smp_compute_penalty >= 1.0,
                "network params '" + who + "': SMP penalty < 1");
  REPRO_REQUIRE(params.smp_bandwidth_factor > 0.0 &&
                    params.smp_bandwidth_factor <= 1.0,
                "network params '" + who +
                    "': smp_bandwidth_factor outside (0, 1]");
  REPRO_REQUIRE(params.jitter_prob_per_rank >= 0.0 &&
                    params.jitter_prob_per_rank <= 1.0,
                "network params '" + who + "': jitter probability outside "
                "[0, 1]");
  REPRO_REQUIRE(params.jitter_latency_mean >= 0.0 &&
                    params.jitter_slowdown_mean >= 0.0,
                "network params '" + who + "': negative jitter mean");
}

NetworkParams params_for(Network net) {
  NetworkParams p;
  switch (net) {
    case Network::kTcpGigE:
      p = tcp_gige();
      break;
    case Network::kScoreGigE:
      p = score_gige();
      break;
    case Network::kMyrinetGM:
      p = myrinet_gm();
      break;
    case Network::kTcpFastEthernet:
      p = tcp_fast_ethernet();
      break;
    default:
      REPRO_UNREACHABLE("bad Network enum value");
  }
  validate_params(p);
  return p;
}

std::string describe_changes(const NetworkParams& params,
                             const NetworkParams& base) {
  std::string out;
  auto add = [&out](const char* field, const std::string& value) {
    if (!out.empty()) out += ',';
    out += field;
    out += '=';
    out += value;
  };
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  if (params.name != base.name) add("name", params.name);
#define REPRO_PARAM(field)                                               \
  if (params.field != base.field) {                                      \
    add(#field, num(static_cast<double>(params.field)));                 \
  }
  REPRO_PARAM(send_overhead)
  REPRO_PARAM(recv_overhead)
  REPRO_PARAM(packet_cost_send)
  REPRO_PARAM(packet_cost_recv)
  REPRO_PARAM(mtu)
  REPRO_PARAM(latency)
  REPRO_PARAM(bandwidth)
  REPRO_PARAM(send_buffer_time)
  REPRO_PARAM(shm_overhead)
  REPRO_PARAM(shm_bandwidth)
  REPRO_PARAM(loopback_through_stack)
  REPRO_PARAM(duplex_exchange_factor)
  REPRO_PARAM(rx_uses_interrupt_cpu)
  REPRO_PARAM(smp_host_penalty)
  REPRO_PARAM(smp_bandwidth_factor)
  REPRO_PARAM(smp_compute_penalty)
  REPRO_PARAM(jitter_prob_per_rank)
  REPRO_PARAM(jitter_min_ranks)
  REPRO_PARAM(jitter_latency_mean)
  REPRO_PARAM(jitter_slowdown_mean)
  REPRO_PARAM(rendezvous_threshold)
  REPRO_PARAM(copy_bandwidth)
#undef REPRO_PARAM
  return out;
}

}  // namespace repro::net

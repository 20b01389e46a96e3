#include "perf/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "perf/json.hpp"

namespace repro::perf {

namespace {

void emit_breakdown(std::ostringstream& os, const char* key,
                    const Breakdown& b) {
  os << "\"" << key << "\":{\"comp\":" << num(b.comp)
     << ",\"comm\":" << num(b.comm) << ",\"sync\":" << num(b.sync)
     << ",\"total\":" << num(b.total()) << "}";
}

}  // namespace

double RunMetrics::mean_queue_wait() const {
  double wait = 0.0;
  std::uint64_t n = 0;
  for (const auto& r : resources) {
    wait += r.queue_wait;
    n += r.acquisitions;
  }
  return n > 0 ? wait / static_cast<double>(n) : 0.0;
}

double RunMetrics::max_queue_wait() const {
  double m = 0.0;
  for (const auto& r : resources) m = std::max(m, r.max_queue_wait);
  return m;
}

double RunMetrics::total_stall_time() const {
  double s = 0.0;
  for (const auto& c : channels) s += c.stall_time;
  return s;
}

const ResourceMetrics* RunMetrics::incast_hot_spot() const {
  const ResourceMetrics* hot = nullptr;
  for (const auto& r : resources) {
    if (r.name.find("nic_rx") == std::string::npos) continue;
    if (r.acquisitions == 0) continue;
    if (hot == nullptr || r.queue_wait > hot->queue_wait) hot = &r;
  }
  return hot;
}

std::string metrics_json(const RunMetrics& metrics) {
  std::ostringstream os;
  os << "{\n";
  os << "\"nranks\":" << metrics.breakdown.nranks << ",\n";
  os << "\"makespan_s\":" << num(metrics.makespan) << ",\n";

  os << "\"breakdown\":{";
  emit_breakdown(os, "classic_wall", metrics.breakdown.classic_wall);
  os << ",";
  emit_breakdown(os, "pme_wall", metrics.breakdown.pme_wall);
  os << ",";
  emit_breakdown(os, "classic_mean", metrics.breakdown.classic_mean);
  os << ",";
  emit_breakdown(os, "pme_mean", metrics.breakdown.pme_mean);
  os << ",";
  emit_breakdown(os, "total_wall", metrics.breakdown.total_wall());
  os << "},\n";

  os << "\"comm_speed_mb_per_s\":{\"avg\":"
     << num(metrics.breakdown.comm_speed.avg_mb_per_s)
     << ",\"min\":" << num(metrics.breakdown.comm_speed.min_mb_per_s)
     << ",\"max\":" << num(metrics.breakdown.comm_speed.max_mb_per_s)
     << ",\"samples\":" << metrics.breakdown.comm_speed.samples << "},\n";
  os << "\"total_bytes\":" << num(metrics.breakdown.total_bytes) << ",\n";

  os << "\"resources\":[";
  for (std::size_t i = 0; i < metrics.resources.size(); ++i) {
    const auto& r = metrics.resources[i];
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << json_escape(r.name) << "\""
       << ",\"busy_s\":" << num(r.busy_time)
       << ",\"utilization\":" << num(r.utilization)
       << ",\"queue_wait_s\":" << num(r.queue_wait)
       << ",\"max_queue_wait_s\":" << num(r.max_queue_wait)
       << ",\"acquisitions\":" << r.acquisitions << "}";
  }
  os << "\n],\n";

  os << "\"channels\":[";
  for (std::size_t i = 0; i < metrics.channels.size(); ++i) {
    const auto& c = metrics.channels[i];
    if (i > 0) os << ",";
    os << "\n{\"src\":" << c.src << ",\"dst\":" << c.dst
       << ",\"messages\":" << c.messages << ",\"bytes\":" << num(c.bytes)
       << ",\"stall_s\":" << num(c.stall_time)
       << ",\"wire_s\":" << num(c.wire_time) << "}";
  }
  os << "\n],\n";

  if (metrics.faults.enabled) {
    const FaultMetrics& f = metrics.faults;
    os << "\"faults\":{"
       << "\"packets_lost\":" << f.packets_lost
       << ",\"retransmits\":" << f.retransmits
       << ",\"retransmitted_bytes\":" << num(f.retransmitted_bytes)
       << ",\"retransmit_delay_s\":" << num(f.retransmit_delay)
       << ",\"degraded_messages\":" << f.degraded_messages
       << ",\"degradation_delay_s\":" << num(f.degradation_delay)
       << ",\"noise_bursts\":" << f.noise_bursts
       << ",\"noise_delay_s\":" << num(f.noise_delay)
       << ",\"straggler_delay_s\":" << num(f.straggler_delay)
       << ",\"stall_events\":" << f.stall_events
       << ",\"stall_delay_s\":" << num(f.stall_delay)
       << ",\"total_delay_s\":" << num(f.total_delay())
       << ",\"absorbed_delay_s\":{\"classic\":" << num(f.absorbed_classic)
       << ",\"pme\":" << num(f.absorbed_pme)
       << ",\"other\":" << num(f.absorbed_other) << "}},\n";
  }

  if (!metrics.phase_seconds.empty()) {
    os << "\"phases\":{";
    bool first = true;
    for (const auto& [name, seconds] : metrics.phase_seconds) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << num(seconds);
    }
    os << "},\n";
  }

  if (metrics.power.enabled) {
    const PowerMetrics& pw = metrics.power;
    os << "\"power\":{"
       << "\"static_watts_per_node\":" << num(pw.static_watts_per_node)
       << ",\"dynamic_watts\":" << num(pw.dynamic_watts)
       << ",\"nodes\":" << pw.nodes
       << ",\"static_joules\":" << num(pw.static_joules)
       << ",\"dynamic_joules\":" << num(pw.dynamic_joules)
       << ",\"total_joules\":" << num(pw.total_joules())
       << ",\"phase_joules\":{";
    bool first = true;
    for (const auto& [name, joules] : pw.phase_joules) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << num(joules);
    }
    os << "}},\n";
  }

  if (!metrics.phase_imbalance.empty()) {
    auto emit_imbalance = [&os](const ImbalanceMetrics& im) {
      os << "{\"max_s\":" << num(im.max_seconds)
         << ",\"mean_s\":" << num(im.mean_seconds)
         << ",\"factor\":" << num(im.factor()) << "}";
    };
    os << "\"imbalance\":{\"compute\":";
    emit_imbalance(metrics.compute_imbalance);
    os << ",\"phases\":{";
    bool first = true;
    for (const auto& [name, im] : metrics.phase_imbalance) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":";
      emit_imbalance(im);
    }
    os << "}},\n";
  }

  os << "\"summary\":{"
     << "\"mean_queue_wait_s\":" << num(metrics.mean_queue_wait())
     << ",\"max_queue_wait_s\":" << num(metrics.max_queue_wait())
     << ",\"total_stall_s\":" << num(metrics.total_stall_time());
  if (const ResourceMetrics* hot = metrics.incast_hot_spot()) {
    os << ",\"incast_hot_spot\":{\"name\":\"" << json_escape(hot->name)
       << "\",\"queue_wait_s\":" << num(hot->queue_wait)
       << ",\"utilization\":" << num(hot->utilization) << "}";
  }
  os << "}\n";
  os << "}\n";
  return os.str();
}

void write_metrics(const std::string& path, const RunMetrics& metrics) {
  write_json_file(path, metrics_json(metrics), "metrics");
}

}  // namespace repro::perf

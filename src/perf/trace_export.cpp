#include "perf/trace_export.hpp"

#include <sstream>

#include "perf/json.hpp"

namespace repro::perf {

namespace {

// chrome://tracing reserved color names; Perfetto ignores them but still
// loads the file. Chosen so overheads stand out: computation green,
// communication orange, synchronization red.
const char* color_for(Kind k) {
  switch (k) {
    case Kind::kComp:
      return "thread_state_running";
    case Kind::kComm:
      return "thread_state_iowait";
    case Kind::kSync:
      return "terrible";
  }
  return "generic_work";
}

}  // namespace

std::string chrome_trace_json(const std::vector<Timeline>& timelines,
                              const FaultMetrics* faults) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
       "\"args\":{\"name\":\"simulated cluster\"}}");
  if (faults != nullptr && faults->enabled) {
    std::ostringstream ev;
    ev << "{\"ph\":\"i\",\"name\":\"injected faults\",\"s\":\"g\""
       << ",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{"
       << "\"packets_lost\":" << faults->packets_lost
       << ",\"retransmits\":" << faults->retransmits
       << ",\"retransmitted_bytes\":" << num(faults->retransmitted_bytes)
       << ",\"total_delay_s\":" << num(faults->total_delay())
       << ",\"absorbed_classic_s\":" << num(faults->absorbed_classic)
       << ",\"absorbed_pme_s\":" << num(faults->absorbed_pme)
       << ",\"absorbed_other_s\":" << num(faults->absorbed_other) << "}}";
    emit(ev.str());
  }
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    const int rank = timelines[i].rank() >= 0 ? timelines[i].rank()
                                              : static_cast<int>(i);
    std::ostringstream ev;
    ev << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << rank
       << ",\"args\":{\"name\":\"rank " << rank << "\"}}";
    emit(ev.str());
    ev.str("");
    ev << "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":"
       << rank << ",\"args\":{\"sort_index\":" << rank << "}}";
    emit(ev.str());
  }

  constexpr double kToMicros = 1e6;  // virtual seconds -> trace microseconds
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    const int rank = timelines[i].rank() >= 0 ? timelines[i].rank()
                                              : static_cast<int>(i);
    for (const auto& e : timelines[i].events()) {
      std::ostringstream ev;
      const char* label = (e.label != nullptr && e.label[0] != '\0')
                              ? e.label
                              : to_string(e.kind);
      ev << "{\"ph\":\"X\",\"name\":\"" << json_escape(label) << "\""
         << ",\"cat\":\"" << to_string(e.component) << ","
         << to_string(e.kind) << "\""
         << ",\"ts\":" << num(e.begin * kToMicros)
         << ",\"dur\":" << num((e.end - e.begin) * kToMicros)
         << ",\"pid\":0,\"tid\":" << rank
         << ",\"cname\":\"" << color_for(e.kind) << "\""
         << ",\"args\":{\"component\":\"" << to_string(e.component) << "\""
         << ",\"kind\":\"" << to_string(e.kind) << "\""
         << ",\"step\":" << e.step << "}}";
      emit(ev.str());
    }
  }
  os << "\n]}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Timeline>& timelines,
                        const FaultMetrics* faults) {
  write_json_file(path, chrome_trace_json(timelines, faults), "trace");
}

}  // namespace repro::perf

#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace skyran::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_json_lines(std::ostream& os) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const std::vector<TraceEvent> spans = TraceJournal::instance().events();

  os << "{\"type\":\"meta\",\"schema\":" << kJsonSchemaVersion
     << ",\"spans\":" << spans.size()
     << ",\"spans_dropped\":" << TraceJournal::instance().dropped() << "}\n";

  for (const CounterSnapshot& c : snap.counters)
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(c.name)
       << "\",\"value\":" << c.value << "}\n";

  for (const GaugeSnapshot& g : snap.gauges)
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(g.name)
       << "\",\"value\":" << json_number(g.value) << "}\n";

  for (const HistogramSnapshot& h : snap.histograms)
    os << "{\"type\":\"histogram\",\"name\":\"" << json_escape(h.name)
       << "\",\"count\":" << h.count << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min) << ",\"max\":" << json_number(h.max)
       << ",\"mean\":" << json_number(h.mean) << ",\"p50\":" << json_number(h.p50)
       << ",\"p90\":" << json_number(h.p90) << ",\"p99\":" << json_number(h.p99)
       << "}\n";

  for (const TraceEvent& e : spans)
    os << "{\"type\":\"span\",\"name\":\"" << json_escape(e.name)
       << "\",\"epoch\":" << e.epoch << ",\"depth\":" << e.depth
       << ",\"thread\":" << e.thread_id << ",\"start_us\":" << json_number(e.start_us)
       << ",\"dur_us\":" << json_number(e.duration_us) << "}\n";
}

}  // namespace skyran::obs

// Exporter for the observability subsystem: machine-readable JSON lines
// (one object per line: a meta header, one line per metric, one line per
// trace span — schema in docs/OBSERVABILITY.md). It reads the process-wide
// MetricsRegistry and TraceJournal without mutating them, so a run can be
// exported to several sinks. tools/metrics_report.py renders a dump for
// people.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace skyran::obs {

/// Version stamped into the meta line; bump when the line layout changes.
inline constexpr int kJsonSchemaVersion = 1;

/// Write the full telemetry state as JSON lines:
///   {"type":"meta","schema":1,"spans":N,"spans_dropped":D}
///   {"type":"counter","name":...,"value":...}
///   {"type":"gauge","name":...,"value":...}
///   {"type":"histogram","name":...,"count":...,"sum":...,"min":...,
///    "max":...,"mean":...,"p50":...,"p90":...,"p99":...}
///   {"type":"span","name":...,"epoch":...,"depth":...,"thread":...,
///    "start_us":...,"dur_us":...}
void write_json_lines(std::ostream& os);

/// Minimal JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Render a double for JSON: shortest round-trippable-ish form via %.9g;
/// non-finite values (never produced by the registry, but defensively)
/// become 0.
std::string json_number(double v);

}  // namespace skyran::obs

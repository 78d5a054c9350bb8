// The per-layer table of a traced run: span sums, counters and the ratios
// derived from them, each divided down to one pass of the workload.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "derive.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Inputs of the per-layer table besides the registry: everything the
/// benchmark measured itself around the traced passes.
struct TracedRun {
  double passes = 1.0;        ///< traced passes the registry accumulated
  double pool_us = 0.0;       ///< empty-dispatch cost, benchmark-timed
  double save_ms = 0.0;       ///< checkpoint saves per pass, benchmark-timed
  double restore_ms = 0.0;    ///< one checkpoint restore, benchmark-timed
  double overhead_frac = 0.0; ///< traced over untraced run_s, minus 1
  std::size_t ckpt_bytes = 0;
  double loc_err_m_p50 = 0.0;
};

/// Every per-layer metric, on every workload (0 where the layer did no
/// work). Span times and counts are per pass.
std::vector<Metric> per_layer(const RegistryView& v, const TracedRun& t);

}  // namespace perfbench

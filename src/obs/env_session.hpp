// The SKYRAN_METRICS_OUT telemetry session. A binary that includes this
// header dumps its telemetry as JSON lines when the variable names a file:
//
//   SKYRAN_METRICS_OUT=fig20.jsonl ./build/bench/fig20_rem_convergence
//
// Instrumentation is enabled and the file opened during static
// initialization (before main); the dump happens after main returns, so the
// whole run is covered without any per-binary code. A path that cannot be
// opened ends the process with status 1 before main runs, so a run never
// loses its dump unnoticed. Off (and zero-cost beyond one atomic load per
// instrumentation site) when the variable is unset. tools/metrics_report.py
// validates and renders a dump.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/obs.hpp"

namespace skyran::obs {

class EnvSession {
 public:
  EnvSession() {
    const char* path = std::getenv("SKYRAN_METRICS_OUT");
    if (path == nullptr) return;
    os_.open(path);
    if (!os_) {
      std::fprintf(stderr, "error: cannot open SKYRAN_METRICS_OUT=%s\n", path);
      std::exit(1);
    }
    set_enabled(true);
  }
  ~EnvSession() {
    if (os_.is_open()) write_json_lines(os_);
  }
  EnvSession(const EnvSession&) = delete;
  EnvSession& operator=(const EnvSession&) = delete;

 private:
  std::ofstream os_;
};

inline EnvSession g_env_session;

}  // namespace skyran::obs

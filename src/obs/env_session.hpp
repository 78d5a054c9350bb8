// The SKYRAN_METRICS_OUT telemetry session. A binary that includes this
// header dumps its telemetry as JSON lines when the variable names a file:
//
//   SKYRAN_METRICS_OUT=fig20.jsonl ./build/bench/fig20_rem_convergence
//
// Instrumentation is enabled during static initialization (before main)
// and the dump happens after main returns, so the whole run is covered
// without any per-binary code. A path that cannot be opened is reported on
// stderr. Off (and zero-cost beyond one atomic load per instrumentation
// site) when the variable is unset. tools/metrics_report.py validates and
// renders a dump.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/obs.hpp"

namespace skyran::obs {

class EnvSession {
 public:
  EnvSession() {
    if (const char* path = std::getenv("SKYRAN_METRICS_OUT")) {
      path_ = path;
      set_enabled(true);
    }
  }
  ~EnvSession() {
    if (path_.empty()) return;
    std::ofstream os(path_);
    if (os)
      write_json_lines(os);
    else
      std::fprintf(stderr, "error: cannot open SKYRAN_METRICS_OUT=%s\n", path_.c_str());
  }
  EnvSession(const EnvSession&) = delete;
  EnvSession& operator=(const EnvSession&) = delete;

 private:
  std::string path_;
};

inline EnvSession g_env_session;

}  // namespace skyran::obs

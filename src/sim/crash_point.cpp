#include "sim/crash_point.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(_WIN32)
#include <process.h>
#endif

namespace skyran::sim {

namespace {

struct CrashState {
  bool armed = false;
  std::string name;
  int target_hit = 1;
  int visits = 0;
};

CrashState& state() {
  static CrashState s = [] {
    // Environment arming lets a driver kill a spawned process without any
    // code changes: SKYRAN_CRASH_AT=<point> [SKYRAN_CRASH_HIT=<n>].
    CrashState init;
    if (const char* at = std::getenv("SKYRAN_CRASH_AT"); at != nullptr && *at != '\0') {
      init.armed = true;
      init.name = at;
      if (const char* hit = std::getenv("SKYRAN_CRASH_HIT"))
        init.target_hit = std::max(1, std::atoi(hit));
    }
    return init;
  }();
  return s;
}

[[noreturn]] void die() {
  // SIGKILL cannot be caught: the process vanishes mid-instruction, exactly
  // like an OOM kill. _Exit is the fallback for platforms without raise().
#if defined(SIGKILL)
  std::raise(SIGKILL);
#endif
  std::_Exit(137);
}

}  // namespace

void crash_point(const char* name) {
  CrashState& s = state();
  if (!s.armed) return;
  if (std::strcmp(name, s.name.c_str()) != 0) return;
  if (++s.visits >= s.target_hit) die();
}

}  // namespace skyran::sim

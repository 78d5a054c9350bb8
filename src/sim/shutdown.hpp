// Graceful-shutdown support for long-running drivers (examples, campaign
// tools). A SIGINT/SIGTERM only sets an async-signal-safe flag; the driver
// polls `shutdown_requested()` at its epoch boundaries and performs the
// orderly exit itself — stop after the last checkpointed epoch, return from
// main so telemetry is flushed — instead of dying mid-state.
#pragma once

#include <csignal>

namespace skyran::sim {

namespace detail {
inline volatile std::sig_atomic_t g_shutdown_flag = 0;
inline void shutdown_signal_handler(int) { g_shutdown_flag = 1; }
}  // namespace detail

/// Route SIGINT and SIGTERM to the shutdown flag. Call once at startup.
inline void install_shutdown_handlers() {
  std::signal(SIGINT, detail::shutdown_signal_handler);
  std::signal(SIGTERM, detail::shutdown_signal_handler);
}

/// True once a SIGINT/SIGTERM has arrived. Poll between epochs.
inline bool shutdown_requested() { return detail::g_shutdown_flag != 0; }

/// For tests: reset the flag as if no signal had arrived.
inline void reset_shutdown_flag() { detail::g_shutdown_flag = 0; }

}  // namespace skyran::sim

// Umbrella header + recording macros for the observability subsystem.
//
// All instrumentation in the codebase goes through these macros. Contract:
//  - `name` must be a string literal (the macros cache the registry lookup
//    in a function-local static, so the name must be the same on every
//    execution of the call site).
//  - With instrumentation disabled (the default), each macro costs one
//    relaxed atomic load and never touches the registry or journal;
//    simulation outputs are bit-identical with instrumentation on or off
//    because recording never feeds back into simulation state.
//  - Compiling with -DSKYRAN_OBS_DISABLED removes the macro bodies
//    entirely (true zero overhead) at the price of losing the
//    SKYRAN_METRICS_OUT dump (obs/env_session.hpp) at runtime; the default
//    build keeps them.
//
// Naming conventions and the exported schema: docs/OBSERVABILITY.md.
#pragma once

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(SKYRAN_OBS_DISABLED)

#define SKYRAN_COUNTER_ADD(name, delta) ((void)0)
#define SKYRAN_COUNTER_INC(name) ((void)0)
#define SKYRAN_GAUGE_SET(name, value) ((void)0)
#define SKYRAN_HISTOGRAM_OBSERVE(name, value) ((void)0)
#define SKYRAN_TRACE_SPAN(name) ((void)0)

#else

#define SKYRAN_OBS_CONCAT_IMPL(a, b) a##b
#define SKYRAN_OBS_CONCAT(a, b) SKYRAN_OBS_CONCAT_IMPL(a, b)

#define SKYRAN_COUNTER_ADD(name, delta)                                         \
  do {                                                                          \
    if (::skyran::obs::enabled()) {                                             \
      static ::skyran::obs::Counter& skyran_obs_counter =                       \
          ::skyran::obs::MetricsRegistry::instance().counter(name);             \
      skyran_obs_counter.add(static_cast<std::uint64_t>(delta));                \
    }                                                                           \
  } while (0)

#define SKYRAN_COUNTER_INC(name) SKYRAN_COUNTER_ADD(name, 1)

#define SKYRAN_GAUGE_SET(name, value)                                           \
  do {                                                                          \
    if (::skyran::obs::enabled()) {                                             \
      static ::skyran::obs::Gauge& skyran_obs_gauge =                           \
          ::skyran::obs::MetricsRegistry::instance().gauge(name);               \
      skyran_obs_gauge.set(static_cast<double>(value));                         \
    }                                                                           \
  } while (0)

#define SKYRAN_HISTOGRAM_OBSERVE(name, value)                                   \
  do {                                                                          \
    if (::skyran::obs::enabled()) {                                             \
      static ::skyran::obs::Histogram& skyran_obs_histogram =                   \
          ::skyran::obs::MetricsRegistry::instance().histogram(name);           \
      skyran_obs_histogram.observe(static_cast<double>(value));                 \
    }                                                                           \
  } while (0)

/// Declares a scoped timer named after the enclosing block; records one
/// journal event (and a `span.<name>.us` histogram sample) at scope exit.
#define SKYRAN_TRACE_SPAN(name) \
  const ::skyran::obs::TraceSpan SKYRAN_OBS_CONCAT(skyran_obs_span_, __LINE__)(name)

#endif  // SKYRAN_OBS_DISABLED

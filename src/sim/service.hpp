// TTI-level LTE service simulation: what the UEs actually experience while
// the UAV serves (hovering) or probes (moving). The MAC is lte::TrafficPlane;
// this layer adds only what the plane does not model: the UAV's position
// over time, fast fading whose coherence depends on motion, and the CQI
// report cadence. The scheduler works from the SNR it knew at the last CQI
// report; when the UAV moves, that knowledge is stale - overshooting MCS
// costs HARQ retransmissions, undershooting wastes capacity - which is
// exactly why the paper limits probing time (Sec 2.5).
#pragma once

#include <vector>

#include "geo/mt19937.hpp"
#include "lte/traffic_plane.hpp"
#include "sim/world.hpp"
#include "uav/flight.hpp"

namespace skyran::sim {

struct ServiceConfig {
  lte::SchedulerPolicy policy = lte::SchedulerPolicy::kRoundRobin;
  double duration_s = 4.0;
  /// CQI reporting period and application delay: the scheduler always works
  /// with channel state this old.
  double cqi_period_ms = 5.0;
  /// Fast-fading magnitude. The fading process is AR(1) with a coherence
  /// time set by motion: lambda/(2*speed) when flying (classic Doppler
  /// decorrelation - ~7 ms at 30 km/h and 2.6 GHz) and 0.2 s when hovering.
  /// This is precisely why probing motion breaks the CQI loop (Sec 2.5).
  double fading_sigma_db = 1.8;
};

struct ServiceReport {
  lte::TrafficPlaneReport traffic;     ///< throughput, HARQ, delay percentiles
  double mean_cqi_staleness_db = 0.0;  ///< mean |true - reported| SNR gap
};

/// Serve the world's UEs for `config.duration_s` from a hovering UAV, one
/// traffic spec per UE. The plane's seed is drawn from `rng`.
ServiceReport run_service_hovering(const World& world, geo::Vec3 uav_position,
                                   const std::vector<lte::TrafficSpec>& traffic,
                                   const ServiceConfig& config, geo::Mt19937_64& rng);

/// Serve while flying `plan` (service continues during a measurement
/// flight); the plan's duration bounds the simulated time.
ServiceReport run_service_flying(const World& world, const uav::FlightPlan& plan,
                                 const std::vector<lte::TrafficSpec>& traffic,
                                 const ServiceConfig& config, geo::Mt19937_64& rng);

}  // namespace skyran::sim

// Measurement-flight execution (paper Step 7): fly a plan while the eNodeB
// PHY reports per-UE SNR at 100 Hz; each report lands in the REM cell under
// the UAV. Reports carry fast-fading jitter on top of the ground-truth
// channel, so REM cell averages converge with dwell time like real ones.
#pragma once


#include "geo/mt19937.hpp"
#include "rem/bank.hpp"
#include "sim/faults.hpp"
#include "sim/world.hpp"
#include "uav/flight.hpp"

namespace skyran::sim {

struct MeasurementConfig {
  double report_rate_hz = 100.0;   ///< PHY SNR report rate (Sec 3.3.3)
  double fading_sigma_db = 1.8;    ///< per-report fast-fading jitter
};

/// Fly `plan` and deposit SNR reports into `bank` (bank UE i is world UE i),
/// marking each UE that received a report stale for the next
/// RemBank::estimate_all.
/// Returns the number of reports per UE.
///
/// `faults` (optional) injects scripted degradation into the flight: wind
/// windows drift the airframe off the planned track (reports are measured
/// and deposited where the UAV actually is), SNR-sag windows degrade every
/// report, and backhaul windows drop reports outright. `start_time_s` places
/// the flight on the epoch flight-time axis the fault windows are scripted
/// in. With `faults == nullptr` (or an inactive injector) the flight is
/// fault-free.
///
/// The ray-traced ground-truth SNR of every (report x UE) runs on the thread
/// pool; the fading draws and the deposits stay on the calling thread in
/// flight order, so the bank is bit-identical for any worker count.
std::size_t run_measurement_flight(const World& world, const uav::FlightPlan& plan,
                                   rem::RemBank& bank, const MeasurementConfig& config,
                                   geo::Mt19937_64& rng, FaultInjector* faults = nullptr,
                                   double start_time_s = 0.0);

}  // namespace skyran::sim

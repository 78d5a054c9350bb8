#include "sim/measurement.hpp"

#include "geo/contract.hpp"
#include "obs/obs.hpp"

namespace skyran::sim {

std::size_t run_measurement_flight(const World& world, const uav::FlightPlan& plan,
                                   rem::RemBank& bank, const MeasurementConfig& config,
                                   std::mt19937_64& rng, FaultInjector* faults,
                                   double start_time_s) {
  expects(bank.ue_count() == world.ue_positions().size(),
          "run_measurement_flight: one bank UE per world UE required");
  expects(bank.ue_count() > 0, "run_measurement_flight: no REMs to update");
  expects(config.report_rate_hz > 0.0, "run_measurement_flight: report rate must be positive");

  const bool inject = faults != nullptr && faults->active();
  const std::span<const geo::Vec3> ues = world.ue_positions();
  const std::vector<uav::FlightSample> samples =
      uav::fly(plan, 1.0 / config.report_rate_hz, start_time_s);
  std::normal_distribution<double> fading(0.0, config.fading_sigma_db);

  std::uint64_t backhaul_dropped = 0;
  std::uint64_t wind_drifted = 0;
  std::size_t reports = 0;
  for (const uav::FlightSample& s : samples) {
    geo::Vec3 at = s.position;
    double sag_db = 0.0;
    bool deliverable = true;
    if (inject) {
      const geo::Vec2 drift = faults->wind_offset_m(s.time_s);
      if (drift.x != 0.0 || drift.y != 0.0) {
        at += geo::Vec3{drift.x, drift.y, 0.0};
        ++wind_drifted;
      }
      sag_db = faults->srs_snr_sag_db(s.time_s);
      deliverable = !faults->backhaul_down(s.time_s);
    }
    const geo::Vec2 ground = world.area().clamp(at.xy());
    for (std::size_t i = 0; i < bank.ue_count(); ++i) {
      const double snr = world.snr_db(at, ues[i]) + fading(rng) - sag_db;
      if (!deliverable) {  // backhaul outage: the report never reaches the REM
        ++backhaul_dropped;
        continue;
      }
      bank.add_measurement(i, ground, snr);
    }
    ++reports;
  }
  if (inject) {
    SKYRAN_COUNTER_ADD("fault.backhaul.reports_dropped", backhaul_dropped);
    SKYRAN_COUNTER_ADD("fault.wind.drifted_reports", wind_drifted);
  }
  return reports;
}

}  // namespace skyran::sim

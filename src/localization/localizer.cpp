#include "localization/localizer.hpp"

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "localization/multilateration.hpp"
#include "obs/obs.hpp"
#include "uav/trajectory.hpp"

namespace skyran::localization {

namespace {

constexpr double kFlightAltitudeM = 60.0;
constexpr double kGpsSigmaM = 1.5;  ///< receiver position noise

}  // namespace

UeLocalizer::UeLocalizer(const rf::RayTraceChannel& channel, rf::LinkBudget budget,
                         LocalizerConfig config)
    : channel_(channel), budget_(budget), config_(config) {
  expects(config.flight_length_m > 0.0, "UeLocalizer: flight length must be positive");
}

LocalizationRun UeLocalizer::localize(geo::Vec2 start, std::vector<geo::Vec3> true_ue_positions,
                                      std::uint64_t seed, RangingFaultModel* faults) const {
  const geo::Rect area = channel_.terrain().area();
  expects(area.contains(start), "UeLocalizer::localize: start must be inside the area");
  SKYRAN_TRACE_SPAN("loc.localize");

  const geo::Path track = uav::random_walk(area.inflated(-5.0), area.inflated(-5.0).clamp(start),
                                           config_.flight_length_m, config_.flight_leg_m, seed);
  const uav::FlightPlan plan = uav::FlightPlan::at_altitude(track, kFlightAltitudeM);
  const std::vector<uav::FlightSample> samples = uav::fly(plan, 1.0 / kGpsRateHz);

  LocalizationRun run;
  run.flight_length_m = plan.length_m();
  run.flight_duration_s = plan.duration_s();
  run.estimates.reserve(true_ue_positions.size());

  // Collect GPS-ToF tuples for every UE over the same flight, then solve all
  // UEs jointly: the ToF processing offset is one constant of the payload,
  // and sharing it across UEs breaks the per-UE radial degeneracy that a
  // short flight aperture leaves.
  geo::Mt19937_64 rng(seed ^ 0x10ca112eULL);
  std::vector<GpsTofSeries> per_ue_tuples;
  std::vector<double> ue_altitudes;
  per_ue_tuples.reserve(true_ue_positions.size());
  ue_altitudes.reserve(true_ue_positions.size());
  for (std::size_t i = 0; i < true_ue_positions.size(); ++i) {
    uav::GpsSensor gps(seed ^ (0x9125ULL + i), kGpsSigmaM);
    per_ue_tuples.push_back(collect_gps_tof(samples, true_ue_positions[i], channel_, budget_,
                                            gps, config_.ranging, rng, faults));
    ue_altitudes.push_back(true_ue_positions[i].z);
  }

  // Degraded path: when no UE kept enough tuples (total SRS loss, a GPS
  // outage covering the flight, the quality gate rejecting everything), the
  // joint solver has nothing to share an offset over. Skip it and report
  // every UE as not localized rather than tripping its contract.
  std::size_t usable_ues = 0;
  for (const GpsTofSeries& t : per_ue_tuples)
    if (t.size() >= 4) ++usable_ues;
  JointMultilaterationResult fit;
  fit.per_ue.resize(true_ue_positions.size());
  if (usable_ues > 0) {
    fit = multilaterate_joint(per_ue_tuples, area, ue_altitudes);
  } else {
    SKYRAN_COUNTER_INC("fault.loc.no_usable_ue");
  }

  for (std::size_t i = 0; i < true_ue_positions.size(); ++i) {
    UeLocationEstimate est;
    if (usable_ues > 0 && per_ue_tuples[i].size() >= 4) {
      est.position = fit.per_ue[i].position;
      est.offset_m = fit.per_ue[i].offset_m;
      est.rms_residual_m = fit.per_ue[i].rms_residual_m;
      est.valid = true;
      SKYRAN_COUNTER_INC("loc.ue.localized");
      SKYRAN_HISTOGRAM_OBSERVE("loc.mlat.rms_residual_m", est.rms_residual_m);
    } else {
      SKYRAN_COUNTER_INC("loc.ue.undecodable");
    }
    run.estimates.push_back(est);
  }
  SKYRAN_GAUGE_SET("loc.mlat.shared_offset_m", fit.shared_offset_m);
  return run;
}

}  // namespace skyran::localization

#include "sim/service.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "geo/contract.hpp"

namespace skyran::sim {

namespace {

constexpr double kTtiMs = 1.0;
constexpr double kHoverCoherenceS = 0.2;  ///< fading coherence of a hovering cell

ServiceReport run_service(const World& world,
                          const std::function<geo::Vec3(double)>& position_at,
                          double duration_s, const std::vector<lte::TrafficSpec>& traffic,
                          const ServiceConfig& config, geo::Mt19937_64& rng) {
  const std::vector<geo::Vec3>& ues = world.ue_positions();
  expects(!ues.empty(), "run_service: no UEs");
  expects(traffic.size() == ues.size(), "run_service: one traffic model per UE");
  const int ttis = static_cast<int>(duration_s * 1000.0 / kTtiMs);
  expects(ttis >= 1, "run_service: duration must cover at least one TTI");
  expects(config.cqi_period_ms >= kTtiMs, "run_service: CQI period below one TTI");

  lte::TrafficPlaneConfig plane_config;
  plane_config.carrier = world.carrier();
  plane_config.policy = config.policy;
  plane_config.seed = rng();
  lte::TrafficPlane plane(plane_config);
  // Reported SNRs are placeholders until the first CQI report at t = 0.
  for (std::size_t i = 0; i < ues.size(); ++i)
    plane.add_ue(static_cast<std::uint32_t>(61 + i), 0.0, traffic[i]);

  std::normal_distribution<double> unit(0.0, 1.0);
  const int cqi_every = std::max(1, static_cast<int>(config.cqi_period_ms / kTtiMs));
  const double wavelength = rf::kSpeedOfLight / world.channel().frequency_hz();

  double staleness_sum = 0.0;
  std::vector<double> fade_state(ues.size(), 0.0);
  std::vector<double> reported_snr_db(ues.size(), 0.0);
  geo::Vec3 prev_pos = position_at(0.0);

  for (int t = 0; t < ttis; ++t) {
    const double now_s = t * kTtiMs / 1000.0;
    const geo::Vec3 uav = position_at(now_s);

    // AR(1) fast fading with motion-dependent coherence: flying at speed v
    // decorrelates the multipath every lambda/(2v) seconds (Doppler), a
    // hovering cell only drifts slowly.
    const double speed = uav.dist(prev_pos) / (kTtiMs / 1000.0);
    prev_pos = uav;
    const double coherence_s =
        speed > 0.05 ? std::min(kHoverCoherenceS, wavelength / (2.0 * speed))
                     : kHoverCoherenceS;
    const double rho = std::exp(-(kTtiMs / 1000.0) / std::max(1e-4, coherence_s));
    for (double& f : fade_state)
      f = rho * f + std::sqrt(std::max(0.0, 1.0 - rho * rho)) *
                        config.fading_sigma_db * unit(rng);

    // The scheduler sees the SNR of the last CQI report; transmissions
    // succeed or fail on the true channel this TTI.
    for (std::size_t i = 0; i < ues.size(); ++i) {
      const double true_snr = world.snr_db(uav, ues[i]) + fade_state[i];
      if (t % cqi_every == 0) {
        reported_snr_db[i] = true_snr;
        plane.set_snr(i, true_snr);
      }
      staleness_sum += std::abs(true_snr - reported_snr_db[i]);
      plane.set_snr_offset_db(i, true_snr - reported_snr_db[i]);
    }
    plane.run_ttis(1);
  }

  ServiceReport report;
  report.traffic = plane.report();
  report.mean_cqi_staleness_db =
      staleness_sum / (static_cast<double>(ttis) * static_cast<double>(ues.size()));
  return report;
}

}  // namespace

ServiceReport run_service_hovering(const World& world, geo::Vec3 uav_position,
                                   const std::vector<lte::TrafficSpec>& traffic,
                                   const ServiceConfig& config, geo::Mt19937_64& rng) {
  return run_service(
      world, [&](double) { return uav_position; }, config.duration_s, traffic, config, rng);
}

ServiceReport run_service_flying(const World& world, const uav::FlightPlan& plan,
                                 const std::vector<lte::TrafficSpec>& traffic,
                                 const ServiceConfig& config, geo::Mt19937_64& rng) {
  expects(!plan.waypoints.empty(), "run_service_flying: empty plan");
  const double duration = std::min(config.duration_s, plan.duration_s());
  return run_service(
      world,
      [&](double t) { return uav::plan_point_at(plan, t * plan.speed_mps); }, duration,
      traffic, config, rng);
}

}  // namespace skyran::sim

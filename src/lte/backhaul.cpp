#include "lte/backhaul.hpp"

#include <algorithm>
#include <cmath>

#include "geo/contract.hpp"

namespace skyran::lte {

namespace {

/// LTE tether: achievable rate of a commercial subscription.
constexpr double kLteRateBps = 80e6;
/// mmWave: peak rate and usable range (rain/oxygen-limited).
constexpr double kMmWavePeakBps = 1.2e9;
constexpr double kMmWaveRangeM = 800.0;
/// WiFi: peak rate and half-rate distance of the rate-vs-range curve.
constexpr double kWifiPeakBps = 300e6;
constexpr double kWifiHalfRangeM = 250.0;

}  // namespace

Backhaul::Backhaul(const rf::RayTraceChannel& channel, BackhaulConfig config)
    : channel_(channel), config_(config) {}

double Backhaul::capacity_bps(geo::Vec3 uav) const {
  const double d = uav.dist(config_.gateway);
  switch (config_.tech) {
    case BackhaulTech::kLteTether:
      // Macro coverage: a flat commercial rate while within ~10 km.
      return d < 10000.0 ? kLteRateBps : 0.0;
    case BackhaulTech::kMmWave: {
      // Strict LOS; linear rate decay to the range edge past half range.
      if (!channel_.line_of_sight(uav, config_.gateway)) return 0.0;
      if (d >= kMmWaveRangeM) return 0.0;
      const double half = kMmWaveRangeM / 2.0;
      if (d <= half) return kMmWavePeakBps;
      return kMmWavePeakBps * (kMmWaveRangeM - d) / (kMmWaveRangeM - half);
    }
    case BackhaulTech::kWifi: {
      // Shannon-flavored rate-vs-range: halves every half_range; NLOS
      // penalizes by an extra factor of 4.
      double rate = kWifiPeakBps * std::pow(0.5, d / kWifiHalfRangeM);
      if (!channel_.line_of_sight(uav, config_.gateway)) rate /= 4.0;
      return rate;
    }
  }
  return 0.0;
}

double Backhaul::end_to_end_mean_bps(std::span<const double> access_rates_bps,
                                     geo::Vec3 uav) const {
  expects(!access_rates_bps.empty(), "Backhaul: need at least one UE rate");
  double access_total = 0.0;
  for (const double r : access_rates_bps) {
    expects(r >= 0.0, "Backhaul: access rates must be non-negative");
    access_total += r;
  }
  const double pipe = capacity_bps(uav);
  const double scale = access_total > pipe && access_total > 0.0 ? pipe / access_total : 1.0;
  return scale * access_total / static_cast<double>(access_rates_bps.size());
}

}  // namespace skyran::lte

// Backhaul link from the UAV to the ground gateway. The paper's prototype
// tethers through a commercial LTE phone and points to mmWave/WiFi/LTE-U as
// drop-in alternatives (Sec 4.1); SkyHAUL (Sec 7) optimizes it in the
// multi-UAV setting. End-to-end UE throughput is capped by this link, so the
// UAV placement objective can be backhaul-aware.
#pragma once

#include <span>

#include "geo/vec.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "lte/amc.hpp"

namespace skyran::lte {

enum class BackhaulTech {
  kLteTether,  ///< commercial LTE modem (the paper's prototype)
  kMmWave,     ///< 60 GHz point-to-point: huge capacity, hard LOS requirement
  kWifi,       ///< 5 GHz long-range link
};

struct BackhaulConfig {
  BackhaulTech tech = BackhaulTech::kLteTether;
  geo::Vec3 gateway{0.0, 0.0, 10.0};  ///< ground station / donor site
};

class Backhaul {
 public:
  /// `channel` supplies LOS checks and path loss for the RF technologies.
  Backhaul(const rf::RayTraceChannel& channel, BackhaulConfig config);

  /// Instantaneous backhaul capacity from a UAV position, bit/s.
  double capacity_bps(geo::Vec3 uav) const;

  /// End-to-end mean per-UE throughput: access-side per-UE rates squeezed
  /// proportionally through the backhaul pipe when it is the bottleneck.
  double end_to_end_mean_bps(std::span<const double> access_rates_bps,
                             geo::Vec3 uav) const;

  const BackhaulConfig& config() const { return config_; }

 private:
  const rf::RayTraceChannel& channel_;
  BackhaulConfig config_;
};

}  // namespace skyran::lte

// UeLocalizer: the complete Step 1-4 block of the SkyRAN epoch (Fig. 10).
// Plans the short random localization flight, runs the GPS-ToF pipeline per
// UE and multilaterates each UE's position.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "localization/pipeline.hpp"
#include "rf/channel.hpp"
#include "terrain/terrain.hpp"

namespace skyran::localization {

struct LocalizerConfig {
  RangingConfig ranging{};
  double flight_length_m = 30.0;  ///< error flattens ~20-30 m (paper Fig. 19)
  /// Leg length of the random walk; two to three legs per flight keeps the
  /// spatial aperture (what localization geometry cares about) close to the
  /// flown length.
  double flight_leg_m = 9.0;
};

struct UeLocationEstimate {
  geo::Vec2 position;
  double offset_m = 0.0;
  double rms_residual_m = 0.0;
  bool valid = false;  ///< false when too few SRS reports decoded
};

struct LocalizationRun {
  std::vector<UeLocationEstimate> estimates;  ///< one per input UE
  double flight_length_m = 0.0;
  double flight_duration_s = 0.0;
};

class UeLocalizer {
 public:
  /// `channel` is the ground-truth propagation world (path loss and line of
  /// sight).
  UeLocalizer(const rf::RayTraceChannel& channel, rf::LinkBudget budget,
              LocalizerConfig config);

  /// Localize every UE in `true_ue_positions` with one random flight
  /// starting at `start`. Deterministic in `seed`. `faults`, when non-null,
  /// injects scripted ranging degradation (SRS loss / SNR sag / GPS outage);
  /// affected UEs come back with valid = false instead of failing the run.
  LocalizationRun localize(geo::Vec2 start, std::vector<geo::Vec3> true_ue_positions,
                           std::uint64_t seed, RangingFaultModel* faults = nullptr) const;

  const LocalizerConfig& config() const { return config_; }

 private:
  const rf::RayTraceChannel& channel_;
  rf::LinkBudget budget_;
  LocalizerConfig config_;
};

}  // namespace skyran::localization

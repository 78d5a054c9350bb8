// Baseline UE localization techniques from the paper's related-work
// comparison (Sec 2.4, Sec 6): macro-cell methods achieve 40-100+ m, an
// order of magnitude worse than SkyRAN's flight-aperture multilateration.
//
//  - E-CID: serving-cell identity plus LTE Timing Advance. With a single
//    omni cell the azimuth is unknown: the estimate collapses to a point on
//    the TA ring (TA quantization is 16 Ts ~ 78 m).
//  - RSS fingerprinting: an offline war-driving database of per-tower RSS
//    vectors on a coarse grid, matched online by weighted k-NN.
//  - UL-TDoA: hyperbolic positioning across several macro eNodeBs whose
//    clocks are only loosely synchronized (the paper: "assume features such
//    as clock synchronization across macro cells" that UAV RANs lack).
//
// All three run against the same ground-truth channel as SkyRAN so the
// comparison in bench/ablation_localization_baselines.cpp is apples to
// apples.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/mt19937.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "geo/rect.hpp"

namespace skyran::localization {

/// LTE Timing Advance granularity (16 Ts at 30.72 MHz) expressed as
/// one-way distance.
inline constexpr double kTimingAdvanceStepM = 78.12;

/// Fixed macro sites placed around the operating area.
std::vector<geo::Vec3> default_macro_sites(geo::Rect area, int count = 3,
                                           double height_m = 30.0);

struct EcidConfig {
  double ta_noise_m = 30.0;  ///< TA estimation noise before quantization
};

/// E-CID with a single serving cell: range from quantized TA, azimuth
/// unknown (drawn uniformly). Returns the position estimate.
geo::Vec2 ecid_localize(geo::Vec3 serving_site, geo::Vec3 ue_true, geo::Rect area,
                        const EcidConfig& config, geo::Mt19937_64& rng);

struct FingerprintConfig {
  double grid_m = 20.0;        ///< war-driving grid pitch
  double train_noise_db = 3.0; ///< shadow/noise when the database was built
  double query_noise_db = 3.0; ///< noise on the online measurement
  int k_neighbors = 4;
};

/// RSS fingerprint database over `area` for the given macro sites.
class FingerprintDatabase {
 public:
  FingerprintDatabase(const rf::ChannelModel& channel, const rf::LinkBudget& budget,
                      std::vector<geo::Vec3> sites, geo::Rect area,
                      const FingerprintConfig& config, std::uint64_t seed);

  /// Localize a UE from its (noisy) per-site RSS vector.
  geo::Vec2 localize(geo::Vec3 ue_true, geo::Mt19937_64& rng) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    geo::Vec2 position;
    std::vector<double> rss_dbm;
  };
  std::vector<double> measure(geo::Vec3 ue, double noise_db, geo::Mt19937_64& rng) const;

  const rf::ChannelModel& channel_;
  rf::LinkBudget budget_;
  std::vector<geo::Vec3> sites_;
  FingerprintConfig config_;
  std::vector<Entry> entries_;
};

struct TdoaConfig {
  double sync_error_ns = 100.0;  ///< inter-site clock error (1 sigma)
  double toa_noise_ns = 30.0;    ///< per-measurement ToA noise
  int grid = 40;                 ///< hyperbolic grid-search resolution
};

/// UL-TDoA across macro sites: grid search minimizing squared range-
/// difference residuals.
geo::Vec2 tdoa_localize(const std::vector<geo::Vec3>& sites, geo::Vec3 ue_true,
                        geo::Rect area, const TdoaConfig& config, geo::Mt19937_64& rng);

}  // namespace skyran::localization

// ChannelModel: the path-loss oracle between a UAV position and a UE
// position. The ground-truth implementation (ray trace + correlated
// shadowing) plays the role of the physical world in our experiments; the
// FSPL implementation is the paper's model-based strawman (Fig. 4) and the
// seed for unexplored REM cells (Sec 3.5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geo/vec.hpp"
#include "rf/raytrace.hpp"
#include "rf/shadowing.hpp"
#include "terrain/terrain.hpp"

namespace skyran::rf {

/// Abstract path-loss model between two points.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Total path loss a->b (transmit minus receive power between isotropic
  /// antennas), dB. Symmetric.
  virtual double path_loss_db(geo::Vec3 a, geo::Vec3 b) const = 0;

  /// Path loss from each of the `n` positions in `a` to the fixed point
  /// `b`, written to `out`. The default is a scalar loop over path_loss_db
  /// with the same argument order (bit-identical to calling it per point);
  /// analytic models override it with a kernels-layer batch evaluation. REM
  /// seeding sweeps call this once per raster row of candidate UAV
  /// positions instead of once per cell.
  virtual void path_loss_db_row(const geo::Vec3* a, std::size_t n, geo::Vec3 b,
                                double* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = path_loss_db(a[i], b);
  }

  /// Carrier frequency, Hz.
  virtual double frequency_hz() const = 0;
};

/// Pure free-space model (no terrain knowledge).
class FsplChannel final : public ChannelModel {
 public:
  explicit FsplChannel(double frequency_hz);
  double path_loss_db(geo::Vec3 a, geo::Vec3 b) const override;
  void path_loss_db_row(const geo::Vec3* a, std::size_t n, geo::Vec3 b,
                        double* out) const override;
  double frequency_hz() const override { return frequency_hz_; }

 private:
  double frequency_hz_;
};

/// Carrier of the ground-truth channel: LTE band 7 mid-band.
inline constexpr double kCarrierHz = 2.6e9;

/// Tuning knobs for the ray-traced ground-truth channel.
struct RayTraceChannelParams {
  double shadowing_sigma_db = 4.0;
  /// Extra shadowing applied when the direct ray is obstructed (NLOS links
  /// fluctuate more than LOS ones).
  double nlos_extra_sigma_db = 2.5;
  /// When true, NLOS excess loss is min(penetration, single-knife-edge
  /// diffraction): in deep shadow the roof-diffracted field dominates the
  /// through-building one. Off by default (the evaluation is calibrated
  /// against the capped penetration model); see bench/ablation_diffraction.
  bool use_knife_edge = false;
};

/// Terrain-aware ground-truth channel: FSPL + obstruction loss + correlated
/// shadowing. Deterministic in (terrain, params, seed). Builds the terrain's
/// SurfaceCeiling once; the terrain must not change while the channel lives.
class RayTraceChannel final : public ChannelModel {
 public:
  RayTraceChannel(std::shared_ptr<const terrain::Terrain> terrain,
                  RayTraceChannelParams params, std::uint64_t seed);

  /// Path loss and line of sight of a->b from one ray march.
  struct Link {
    double path_loss_db = 0.0;
    bool line_of_sight = false;
  };
  Link trace(geo::Vec3 a, geo::Vec3 b) const;

  double path_loss_db(geo::Vec3 a, geo::Vec3 b) const override;
  double frequency_hz() const override { return kCarrierHz; }

  /// True when a->b has an unobstructed direct ray.
  bool line_of_sight(geo::Vec3 a, geo::Vec3 b) const;

  const terrain::Terrain& terrain() const { return *terrain_; }
  const RayTraceChannelParams& params() const { return params_; }

 private:
  std::shared_ptr<const terrain::Terrain> terrain_;
  SurfaceCeiling ceiling_;
  RayTraceChannelParams params_;
  ShadowingField los_shadowing_;
  ShadowingField nlos_shadowing_;
};

}  // namespace skyran::rf

// Terrain-aware ray marching. This is the channel model the paper itself uses
// for its scale-up study (Sec 5.1): trace the direct ray from the UAV to the
// UE, determine which portion is obstructed by terrain features, and charge
// free-space attenuation on the clear portion plus per-material bulk loss on
// the obstructed portion.
#pragma once

#include <vector>

#include "geo/vec.hpp"
#include "terrain/terrain.hpp"

namespace skyran::rf {

/// Result of tracing one ray against the terrain.
struct RayObstruction {
  double total_length_m = 0.0;     ///< straight-line ray length
  double building_length_m = 0.0;  ///< portion inside buildings
  double foliage_length_m = 0.0;   ///< portion inside foliage
  bool below_ground = false;       ///< ray dips under the ground surface

  bool line_of_sight() const {
    return !below_ground && building_length_m == 0.0 && foliage_length_m == 0.0;
  }
};

/// Coarse upper bound of a terrain raster for the ray march: one height per
/// kTileCells x kTileCells tile of cells, the highest value trace_ray ever
/// compares a ray height with in that tile. That is each cell's ground and,
/// for building and foliage cells, the clutter top as the march computes it
/// (the float sum ground + clutter_height). Built once per terrain; the
/// terrain must not change afterwards. Immutable, so one ceiling is safe to
/// share across threads.
class SurfaceCeiling {
 public:
  static constexpr int kTileCells = 8;

  explicit SurfaceCeiling(const terrain::Terrain& t);

  /// True when height min(p.z, q.z) is strictly above the ceiling of every
  /// tile that the box of p's and q's cells (t.area().clamp, then
  /// t.cells().cell_of), widened by one cell, touches. A height above every
  /// tile answers without mapping p and q to cells.
  bool clears(const terrain::Terrain& t, geo::Vec3 p, geo::Vec3 q) const;

  /// True when this ceiling was built over a raster of `t`'s dimensions.
  bool fits(const terrain::Terrain& t) const {
    return t.cells().nx() == cells_nx_ && t.cells().ny() == cells_ny_;
  }

 private:
  int cells_nx_ = 0;
  int cells_ny_ = 0;
  int tiles_nx_ = 0;
  std::vector<double> top_;  ///< row-major over tiles
  double highest_ = 0.0;     ///< max of top_
};

/// March the segment a->b through the terrain raster and measure how much of
/// it passes through each obstruction class. `step_m` controls the sampling
/// pitch along the ray (defaults to half the raster cell size when <= 0).
/// `ceiling` must be built from `t`: runs of steps that provably fly above
/// it are skipped, which changes no output bit. Endpoints and `step_m` must
/// be finite.
RayObstruction trace_ray(const terrain::Terrain& t, const SurfaceCeiling& ceiling, geo::Vec3 a,
                         geo::Vec3 b, double step_m = 0.0);

/// Penetration loss per meter of the ray inside buildings and foliage.
inline constexpr double kBuildingLossDbPerM = 1.8;
inline constexpr double kFoliageLossDbPerM = 0.45;
/// Excess loss is capped here: beyond this, diffracted/multipath energy
/// dominates the through-path (keeps deep-NLOS cells finite, as observed in
/// real urban measurements).
inline constexpr double kMaxExcessLossDb = 65.0;
/// Flat penalty once the direct ray is below ground (pure diffraction).
inline constexpr double kBelowGroundLossDb = 65.0;

/// Excess (non-free-space) loss in dB for an obstruction measurement.
double obstruction_loss_db(const RayObstruction& ray);

/// Single knife-edge diffraction loss (ITU-R P.526): find the dominant
/// obstruction along a->b (the point maximizing the Fresnel parameter v) and
/// return the Lee approximation of the diffraction loss,
///   L = 6.9 + 20 log10(sqrt((v-0.1)^2 + 1) + v - 0.1)   for v > -0.78,
/// else 0. In deep shadow the field that actually arrives is usually the
/// roof-diffracted one, so the effective NLOS excess is
/// min(penetration loss, knife-edge loss).
double knife_edge_loss_db(const terrain::Terrain& t, geo::Vec3 a, geo::Vec3 b,
                          double frequency_hz, double step_m = 0.0);

}  // namespace skyran::rf

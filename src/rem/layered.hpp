// Layered (3-D) REMs. The paper deliberately avoids full 3-D REMs - probing
// O(N^3) airspace is prohibitive and maps at nearby altitudes are highly
// correlated (Sec 3.3.1) - and fixes one operating altitude instead. This
// module implements the road not taken: per-UE REMs stacked at several
// altitudes with interpolation in between, and placement that searches over
// (x, y, z). bench/ablation_3d_placement quantifies what the single-altitude
// simplification costs.
#pragma once

#include <span>
#include <vector>

#include "rem/bank.hpp"
#include "rem/placement.hpp"

namespace skyran::rem {

/// A stack of per-altitude REMs for one UE: one one-UE RemBank per altitude.
class LayeredRem {
 public:
  /// `altitudes_m` must be strictly increasing.
  LayeredRem(geo::Rect area, double cell_size, std::vector<double> altitudes_m,
             geo::Vec3 ue_position);

  std::size_t layer_count() const { return layers_.size(); }
  const std::vector<double>& altitudes_m() const { return altitudes_; }
  RemBank& layer(std::size_t i);
  const RemBank& layer(std::size_t i) const;

  /// Full-map estimate of layer `i`.
  geo::Grid2D<double> layer_estimate(std::size_t i, const IdwParams& params = {}) const;

  /// Layer index whose altitude is nearest to `altitude_m`.
  std::size_t nearest_layer(double altitude_m) const;

  const geo::Vec3& ue_position() const { return layers_.front().ue_position(0); }

 private:
  std::vector<double> altitudes_;
  std::vector<RemBank> layers_;
};

struct Placement3D {
  geo::Vec2 position;
  double altitude_m = 0.0;
  double objective_snr_db = 0.0;
};

/// Search (x, y, layer altitude) for the best placement under `objective`;
/// feasibility-masked per altitude. All stacks must share geometry and the
/// same altitude ladder.
Placement3D choose_placement_3d(std::span<const LayeredRem> stacks,
                                const terrain::Terrain& t,
                                PlacementObjective objective = PlacementObjective::kMaxMin,
                                const IdwParams& params = {});

}  // namespace skyran::rem

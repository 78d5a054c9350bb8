#include "rem/layered.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/contract.hpp"

namespace skyran::rem {

LayeredRem::LayeredRem(geo::Rect area, double cell_size, std::vector<double> altitudes_m,
                       geo::Vec3 ue_position)
    : altitudes_(std::move(altitudes_m)) {
  expects(!altitudes_.empty(), "LayeredRem: need at least one altitude");
  expects(std::is_sorted(altitudes_.begin(), altitudes_.end()) &&
              std::adjacent_find(altitudes_.begin(), altitudes_.end()) == altitudes_.end(),
          "LayeredRem: altitudes must be strictly increasing");
  layers_.reserve(altitudes_.size());
  for (const double a : altitudes_) {
    layers_.emplace_back(area, cell_size, a);
    layers_.back().add_ue(ue_position);
  }
}

RemBank& LayeredRem::layer(std::size_t i) {
  expects(i < layers_.size(), "LayeredRem::layer: index out of range");
  return layers_[i];
}

const RemBank& LayeredRem::layer(std::size_t i) const {
  expects(i < layers_.size(), "LayeredRem::layer: index out of range");
  return layers_[i];
}

geo::Grid2D<double> LayeredRem::layer_estimate(std::size_t i, const IdwParams& params) const {
  RemBank bank = layer(i);
  bank.estimate_all(params);
  return bank.estimate_grid(0);
}

std::size_t LayeredRem::nearest_layer(double altitude_m) const {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < altitudes_.size(); ++i) {
    const double d = std::abs(altitudes_[i] - altitude_m);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

Placement3D choose_placement_3d(std::span<const LayeredRem> stacks, const terrain::Terrain& t,
                                PlacementObjective objective, const IdwParams& params) {
  expects(!stacks.empty(), "choose_placement_3d: need at least one UE stack");
  const std::vector<double>& ladder = stacks.front().altitudes_m();
  for (const LayeredRem& s : stacks)
    expects(s.altitudes_m() == ladder, "choose_placement_3d: altitude ladders must match");

  Placement3D best;
  double best_v = -std::numeric_limits<double>::infinity();
  for (std::size_t li = 0; li < ladder.size(); ++li) {
    std::vector<geo::Grid2D<double>> maps;
    maps.reserve(stacks.size());
    for (const LayeredRem& s : stacks) maps.push_back(s.layer_estimate(li, params));
    const Placement p =
        choose_placement_feasible(geo::views_of(maps), t, ladder[li], objective);
    if (p.objective_snr_db > best_v) {
      best_v = p.objective_snr_db;
      best.position = p.position;
      best.altitude_m = ladder[li];
      best.objective_snr_db = p.objective_snr_db;
    }
  }
  return best;
}

}  // namespace skyran::rem

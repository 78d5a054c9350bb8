#include "rem/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"

namespace skyran::rem {

namespace {

using ConstView = geo::FieldView<const double>;

}  // namespace

geo::Grid2D<double> min_snr_map(std::span<const ConstView> per_ue_maps) {
  expects(!per_ue_maps.empty(), "min_snr_map: need at least one REM");
  geo::Grid2D<double> out(per_ue_maps.front().area(), per_ue_maps.front().cell_size(), 0.0);
  for (std::size_t i = 1; i < per_ue_maps.size(); ++i)
    expects(per_ue_maps[i].same_geometry(out), "min_snr_map: geometry mismatch");
  core::parallel_for(out.raw().size(), [&](std::size_t j) {
    double v = per_ue_maps.front()[j];
    for (std::size_t i = 1; i < per_ue_maps.size(); ++i)
      v = std::min(v, per_ue_maps[i][j]);
    out.raw()[j] = v;
  });
  return out;
}

geo::Grid2D<double> mean_snr_map(std::span<const ConstView> per_ue_maps,
                                 std::span<const double> weights) {
  expects(!per_ue_maps.empty(), "mean_snr_map: need at least one REM");
  expects(weights.empty() || weights.size() == per_ue_maps.size(),
          "mean_snr_map: weight count must match REM count");
  geo::Grid2D<double> out(per_ue_maps.front().area(), per_ue_maps.front().cell_size(), 0.0);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < per_ue_maps.size(); ++i) {
    expects(per_ue_maps[i].same_geometry(out), "mean_snr_map: geometry mismatch");
    const double w = weights.empty() ? 1.0 : weights[i];
    expects(w >= 0.0, "mean_snr_map: weights must be non-negative");
    weight_sum += w;
  }
  expects(weight_sum > 0.0, "mean_snr_map: weights must not all be zero");
  // Per-cell accumulation in UE order: the same FP addition order as a
  // map-by-map serial sweep, so the result is unchanged.
  core::parallel_for(out.raw().size(), [&](std::size_t j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < per_ue_maps.size(); ++i)
      acc += (weights.empty() ? 1.0 : weights[i]) * per_ue_maps[i][j];
    out.raw()[j] = acc / weight_sum;
  });
  return out;
}

geo::Grid2D<double> coverage_map(std::span<const ConstView> per_ue_maps,
                                 double threshold_db) {
  expects(!per_ue_maps.empty(), "coverage_map: need at least one REM");
  geo::Grid2D<double> out(per_ue_maps.front().area(), per_ue_maps.front().cell_size(), 0.0);
  for (const ConstView& m : per_ue_maps)
    expects(m.same_geometry(out), "coverage_map: geometry mismatch");
  core::parallel_for(out.raw().size(), [&](std::size_t j) {
    double served = 0.0;
    for (const ConstView& m : per_ue_maps)
      if (m[j] >= threshold_db) served += 1.0;
    out.raw()[j] = served / static_cast<double>(per_ue_maps.size());
  });
  return out;
}

namespace {

geo::Grid2D<double> objective_map(std::span<const ConstView> per_ue_maps,
                                  PlacementObjective objective,
                                  std::span<const double> weights) {
  switch (objective) {
    case PlacementObjective::kMaxMin:
      return min_snr_map(per_ue_maps);
    case PlacementObjective::kMaxCoverage: {
      // Coverage plateaus everywhere several UEs are served: break ties
      // with a small mean-SNR term so the argmax stays meaningful.
      geo::Grid2D<double> cov = coverage_map(per_ue_maps);
      const geo::Grid2D<double> mean = mean_snr_map(per_ue_maps);
      for (std::size_t j = 0; j < cov.raw().size(); ++j)
        cov.raw()[j] += 1e-4 * mean.raw()[j];
      return cov;
    }
    case PlacementObjective::kMaxMean:
    case PlacementObjective::kMaxWeighted:
      break;
  }
  return mean_snr_map(per_ue_maps, objective == PlacementObjective::kMaxWeighted
                                       ? weights
                                       : std::span<const double>{});
}

Placement argmax_placement(const geo::Grid2D<double>& map) {
  // Chunked argmax: strict `>` within a chunk and across the chunk-ordered
  // combine keeps the lowest flat index on ties — exactly the serial sweep.
  struct Best {
    double v = -std::numeric_limits<double>::infinity();
    std::size_t index = 0;
  };
  const auto& raw = map.raw();
  const Best best = core::parallel_reduce(
      raw.size(), 0, Best{},
      [&](std::size_t begin, std::size_t end) {
        Best b;
        b.index = begin;
        for (std::size_t j = begin; j < end; ++j) {
          if (raw[j] > b.v) {
            b.v = raw[j];
            b.index = j;
          }
        }
        return b;
      },
      [](Best a, const Best& b) { return b.v > a.v ? b : a; });

  Placement out;
  out.objective_snr_db = best.v;
  const int nx = map.nx();
  out.position = map.center_of({static_cast<int>(best.index % static_cast<std::size_t>(nx)),
                                static_cast<int>(best.index / static_cast<std::size_t>(nx))});
  return out;
}

}  // namespace

Placement choose_placement(std::span<const ConstView> per_ue_maps,
                           PlacementObjective objective, std::span<const double> weights) {
  return argmax_placement(objective_map(per_ue_maps, objective, weights));
}

Placement choose_placement_feasible(std::span<const ConstView> per_ue_maps,
                                    const terrain::Terrain& t, double altitude_m,
                                    PlacementObjective objective,
                                    std::span<const double> weights, double clearance_m) {
  geo::Grid2D<double> map = objective_map(per_ue_maps, objective, weights);
  mask_infeasible_cells(map, t, altitude_m, clearance_m);
  return argmax_placement(map);
}

void mask_infeasible_cells(geo::Grid2D<double>& objective, const terrain::Terrain& t,
                           double altitude_m, double clearance_m) {
  auto& raw = objective.raw();
  const int nx = objective.nx();
  core::parallel_for(raw.size(), [&](std::size_t j) {
    const geo::CellIndex c{static_cast<int>(j % static_cast<std::size_t>(nx)),
                           static_cast<int>(j / static_cast<std::size_t>(nx))};
    if (t.surface_height(objective.center_of(c)) + clearance_m > altitude_m) raw[j] = -1e9;
  });
}

AltitudeSearchResult find_optimal_altitude(const rf::ChannelModel& channel, geo::Vec2 xy,
                                           std::span<const geo::Vec3> ue_positions,
                                           double start_altitude_m, double min_altitude_m,
                                           double step_m, int patience) {
  expects(!ue_positions.empty(), "find_optimal_altitude: need at least one UE");
  expects(start_altitude_m > min_altitude_m, "find_optimal_altitude: start must exceed min");
  expects(step_m > 0.0, "find_optimal_altitude: step must be positive");

  // Average each probe over a small circle of hover positions: a single
  // point would be dominated by local shadow fading.
  const auto mean_loss = [&](double alt) {
    constexpr int kProbePoints = 6;
    constexpr double kProbeRadius = 20.0;
    double sum = 0.0;
    for (int i = 0; i < kProbePoints; ++i) {
      const double ang = 2.0 * M_PI * i / kProbePoints;
      const geo::Vec2 at = xy + geo::Vec2{std::cos(ang), std::sin(ang)} * kProbeRadius;
      for (const geo::Vec3& ue : ue_positions)
        sum += channel.path_loss_db(geo::Vec3{at, alt}, ue);
    }
    return sum / static_cast<double>(ue_positions.size() * kProbePoints);
  };

  AltitudeSearchResult best;
  best.altitude_m = start_altitude_m;
  best.mean_path_loss_db = mean_loss(start_altitude_m);
  best.probes = 1;
  int worse_streak = 0;
  for (double alt = start_altitude_m - step_m; alt >= min_altitude_m; alt -= step_m) {
    const double loss = mean_loss(alt);
    ++best.probes;
    if (loss < best.mean_path_loss_db) {
      best.mean_path_loss_db = loss;
      best.altitude_m = alt;
      worse_streak = 0;
    } else if (++worse_streak >= patience) {
      break;  // path loss has turned around: shadowing dominates below
    }
  }
  return best;
}

}  // namespace skyran::rem

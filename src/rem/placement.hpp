// UAV placement from REMs (paper Sec 3.4): build the min-SNR map across all
// per-UE REMs and pick the cell maximizing it (max-min SNR), plus alternate
// objectives and the optimal-altitude descent search of Step 5.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "geo/field_view.hpp"
#include "geo/grid.hpp"
#include "geo/vec.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "terrain/terrain.hpp"

namespace skyran::rem {

/// Placement objectives supported by SkyRAN (Sec 7 "Placement objective").
enum class PlacementObjective {
  kMaxMin,       ///< maximize the minimum per-UE SNR (default)
  kMaxMean,      ///< maximize the mean per-UE SNR
  kMaxWeighted,  ///< maximize a weighted mean of per-UE SNRs
  kMaxCoverage,  ///< maximize the number of UEs above a service SNR threshold
};

/// Service threshold used by the kMaxCoverage objective (roughly CQI >= 4:
/// a usable LTE bearer).
inline constexpr double kCoverageSnrThresholdDb = 0.0;

/// Fraction of UEs whose SNR from `position_cell` clears `threshold_db`.
/// Computed cell-wise over the per-UE maps. Every function here reads the
/// maps as views (rem::RemBank serves its cached estimate slabs without
/// copying); callers holding owning rasters pass geo::views_of(maps).
geo::Grid2D<double> coverage_map(std::span<const geo::FieldView<const double>> per_ue_maps,
                                 double threshold_db = kCoverageSnrThresholdDb);

struct Placement {
  geo::Vec2 position;
  double objective_snr_db = 0.0;  ///< objective value at the chosen cell
};

/// Cell-wise minimum across per-UE SNR maps; all maps must share geometry.
geo::Grid2D<double> min_snr_map(std::span<const geo::FieldView<const double>> per_ue_maps);

/// Cell-wise (optionally weighted) mean across per-UE SNR maps.
geo::Grid2D<double> mean_snr_map(std::span<const geo::FieldView<const double>> per_ue_maps,
                                 std::span<const double> weights = {});

/// Optimal position under the chosen objective.
Placement choose_placement(std::span<const geo::FieldView<const double>> per_ue_maps,
                           PlacementObjective objective = PlacementObjective::kMaxMin,
                           std::span<const double> weights = {});

/// Disqualify hover cells the UAV cannot physically occupy: the surface
/// (ground + clutter) must clear `altitude_m` by at least `clearance_m`.
/// Infeasible cells are set to a huge negative objective value.
void mask_infeasible_cells(geo::Grid2D<double>& objective, const terrain::Terrain& t,
                           double altitude_m, double clearance_m = 10.0);

/// choose_placement restricted to cells the UAV can physically hover in.
Placement choose_placement_feasible(std::span<const geo::FieldView<const double>> per_ue_maps,
                                    const terrain::Terrain& t, double altitude_m,
                                    PlacementObjective objective = PlacementObjective::kMaxMin,
                                    std::span<const double> weights = {},
                                    double clearance_m = 10.0);

/// Optimal-altitude search (paper Step 5): starting at `start_altitude_m`
/// above `xy`, descend in `step_m` decrements while the mean path loss to
/// the UEs keeps decreasing; stop after `patience` consecutive increases
/// (or at `min_altitude_m`) and return the best altitude seen.
struct AltitudeSearchResult {
  double altitude_m = 0.0;
  double mean_path_loss_db = 0.0;
  int probes = 0;  ///< number of hover-and-measure stops
};

AltitudeSearchResult find_optimal_altitude(const rf::ChannelModel& channel, geo::Vec2 xy,
                                           std::span<const geo::Vec3> ue_positions,
                                           double start_altitude_m = 120.0,
                                           double min_altitude_m = 20.0, double step_m = 10.0,
                                           int patience = 2);

}  // namespace skyran::rem

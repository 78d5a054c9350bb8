// Baseline placement schemes from the paper's evaluation (Sec 4.2):
// UNIFORM - no UE locations; zigzag measurement sweep, REM-based placement.
// CENTROID - UE locations only; hover over their centroid, no REMs.
// RANDOM - neither; hover at a random position (lower bound).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "rem/bank.hpp"
#include "rem/placement.hpp"
#include "sim/measurement.hpp"
#include "sim/world.hpp"

namespace skyran::sim {

struct SchemeResult {
  geo::Vec2 position;          ///< chosen UAV ground position
  double altitude_m = 0.0;
  double flight_length_m = 0.0;  ///< measurement overhead spent
  /// Constructed REMs, estimated with the scheme's IDW parameters (bank UE
  /// i is world UE i); empty for non-REM schemes.
  std::optional<rem::RemBank> rems;
};

struct UniformConfig {
  double altitude_m = 60.0;
  double budget_m = 1000.0;  ///< measurement budget (trajectory length)
  double rem_cell_m = 5.0;   ///< REM raster used by the scheme
  MeasurementConfig measurement{};
  rem::IdwParams idw{};  ///< unlimited radius: no location prior
  rem::PlacementObjective objective = rem::PlacementObjective::kMaxMin;
};

/// Zigzag sweep from the SW corner truncated to the budget, REM estimation,
/// max-min placement.
SchemeResult run_uniform(const World& world, const UniformConfig& config, std::uint64_t seed);

/// Hover over the centroid of the (estimated) UE positions.
SchemeResult run_centroid(std::span<const geo::Vec2> ue_positions, double altitude_m,
                          geo::Rect area);

/// Hover at a uniformly random position.
SchemeResult run_random(const World& world, double altitude_m, std::uint64_t seed);

}  // namespace skyran::sim

// Measurement-trajectory planner (paper Step 6, Fig. 11): aggregate the
// current per-UE REM estimates, compute the gradient map, keep cells above
// the median gradient, cluster them with k-means for each K in
// [k_min, k_max], connect each K's cluster heads with a TSP tour, and pick
// the tour with the best information-gain-to-cost ratio. The K-sweep fans out
// across the thread pool, one K per lane (the k-means reductions inside a K
// run inline); the winner is then picked serially in K order, so the plan is
// the same at any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/path.hpp"
#include "rem/bank.hpp"
#include "rem/info_gain.hpp"

namespace skyran::rem {

struct PlannerConfig {
  int k_min = 4;
  int k_max = 12;
  InfoGainParams info{};
};

struct PlannedTrajectory {
  geo::Path path;
  int k = 0;                   ///< cluster count of the winning tour
  double info_gain = 0.0;      ///< average info gain (meters)
  double cost_m = 0.0;         ///< tour length
  double info_to_cost = 0.0;
  std::size_t high_gradient_cells = 0;
};

/// Plan the next measurement tour from `bank`'s cached per-UE estimates
/// (possibly sparse REMs). Requires bank.estimates_current(): call
/// RemBank::estimate_all first. `history` holds the trajectories already
/// flown per UE (bank order); `start` is the UAV's current ground position.
/// `budget_m` caps the tour length (0 = none); `seed` keys the k-means
/// initialisation (K adds to it).
PlannedTrajectory plan_measurement_trajectory(const RemBank& bank,
                                              const std::vector<TrajectoryHistory>& history,
                                              geo::Vec2 start, double budget_m,
                                              std::uint64_t seed,
                                              const PlannerConfig& config = {});

}  // namespace skyran::rem

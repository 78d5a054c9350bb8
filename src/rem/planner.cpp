#include "rem/planner.hpp"

#include <algorithm>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "obs/obs.hpp"
#include "rem/gradient.hpp"
#include "rem/kmeans.hpp"
#include "rem/tsp.hpp"
#include "uav/trajectory.hpp"

namespace skyran::rem {

PlannedTrajectory plan_measurement_trajectory(const RemBank& bank,
                                              const std::vector<TrajectoryHistory>& history,
                                              geo::Vec2 start, double budget_m,
                                              std::uint64_t seed, const PlannerConfig& config) {
  expects(bank.ue_count() > 0, "plan_measurement_trajectory: need at least one REM");
  expects(history.size() == bank.ue_count(),
          "plan_measurement_trajectory: history size must match REM count");
  expects(config.k_min >= 1 && config.k_max >= config.k_min,
          "plan_measurement_trajectory: invalid K range");
  expects(bank.estimates_current(),
          "plan_measurement_trajectory: bank estimates are stale; call estimate_all first");
  SKYRAN_TRACE_SPAN("rem.plan_trajectory");

  // Step 6.1: aggregate REM = cell-wise sum of the cached per-UE estimates.
  geo::Grid2D<double> aggregate = bank.estimate_grid(0);
  for (std::size_t i = 1; i < bank.ue_count(); ++i) {
    const geo::FieldView<const double> est = bank.estimate(i);
    for (std::size_t j = 0; j < est.size(); ++j) aggregate.raw()[j] += est[j];
  }

  // Steps 6.2-6.4: gradient map, median partition, K-sweep,
  // information-to-cost tour selection.
  const geo::Grid2D<double> grad = gradient_map(aggregate);
  const std::vector<geo::CellIndex> hot = high_gradient_cells(grad);

  std::vector<WeightedPoint> points;
  points.reserve(hot.size());
  for (geo::CellIndex c : hot) points.push_back({grad.center_of(c), grad.at(c)});
  if (points.empty()) {
    // Degenerate (perfectly flat) estimate: probe the clamped UE positions.
    for (std::size_t i = 0; i < bank.ue_count(); ++i)
      points.push_back({bank.area().clamp(bank.ue_position(i).xy()), 1.0});
  }

  // One slot per K, filled in one parallel_for with grain 1: each K's
  // k-means, tour and gain are independent of the others, and the k-means
  // reductions nested in a slot run inline with their own chunk boundaries,
  // so every slot is the same at any worker count.
  struct Candidate {
    geo::Path tour;
    double cost = 0.0;
    double gain = 0.0;
  };
  const auto n_k = static_cast<std::size_t>(config.k_max - config.k_min + 1);
  std::vector<Candidate> candidates(n_k);
  core::parallel_for(
      n_k,
      [&](std::size_t i) {
        const int k = config.k_min + static_cast<int>(i);
        const KMeansResult clusters = kmeans(points, k, seed + static_cast<std::uint64_t>(k));
        Candidate& c = candidates[i];
        c.tour = plan_tour(start, clusters.centroids);
        if (budget_m > 0.0) c.tour = uav::truncate_to_budget(c.tour, budget_m);
        c.cost = c.tour.length();
        if (c.cost > 0.0) c.gain = average_info_gain(c.tour, history, config.info);
      },
      1);

  // Pick the winner in K order: a zero-length tour is infeasible, and only a
  // strictly greater ratio replaces the incumbent, so the smallest K wins a tie.
  PlannedTrajectory best;
  bool have_best = false;
  for (std::size_t i = 0; i < n_k; ++i) {
    Candidate& c = candidates[i];
    if (c.cost <= 0.0) continue;
    const double ratio = c.gain / c.cost;
    if (!have_best || ratio > best.info_to_cost) {
      best.path = std::move(c.tour);
      best.k = config.k_min + static_cast<int>(i);
      best.info_gain = c.gain;
      best.cost_m = c.cost;
      best.info_to_cost = ratio;
      have_best = true;
    }
  }
  expects(have_best, "plan_measurement_trajectory: no feasible tour");
  best.high_gradient_cells = hot.size();
  SKYRAN_COUNTER_INC("rem.planner.plans");
  SKYRAN_HISTOGRAM_OBSERVE("rem.planner.tour_length_m", best.cost_m);
  SKYRAN_HISTOGRAM_OBSERVE("rem.planner.info_gain", best.info_gain);
  SKYRAN_HISTOGRAM_OBSERVE("rem.planner.info_to_cost", best.info_to_cost);
  SKYRAN_HISTOGRAM_OBSERVE("rem.planner.k_selected", best.k);
  SKYRAN_HISTOGRAM_OBSERVE("rem.planner.high_gradient_cells", best.high_gradient_cells);
  return best;
}

}  // namespace skyran::rem

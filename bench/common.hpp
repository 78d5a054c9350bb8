// Shared plumbing for the figure-reproduction benches: consistent world
// construction, one-epoch SkyRAN/Uniform runs against ground truth, and
// small CLI conveniences. Every bench prints the paper's reference numbers
// next to the measured ones so the shape comparison is immediate.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/skyran.hpp"
#include "geo/mt19937.hpp"
#include "geo/stats.hpp"
#include "mobility/deployment.hpp"
#include "obs/env_session.hpp"
#include "rem/planner.hpp"
#include "sim/baselines.hpp"
#include "sim/ground_truth.hpp"
#include "sim/measurement.hpp"
#include "sim/table.hpp"
#include "uav/trajectory.hpp"

namespace skyran::bench {

/// CLI: every bench accepts [n_seeds] as argv[1] (default per-bench) so the
/// sweep depth is adjustable without recompiling.
inline int seeds_arg(int argc, char** argv, int fallback) {
  if (argc > 1) {
    const int n = std::atoi(argv[1]);
    if (n > 0) return n;
  }
  return fallback;
}

inline sim::World make_world(terrain::TerrainKind kind, std::uint64_t seed,
                             double cell = 1.0) {
  sim::WorldConfig wc;
  wc.terrain_kind = kind;
  wc.seed = seed;
  wc.cell_size_m = cell;
  return sim::World(wc);
}

/// Evaluation raster for ground truth: coarse enough to keep sweeps fast.
inline double eval_cell(terrain::TerrainKind kind) {
  return kind == terrain::TerrainKind::kLarge ? 15.0 : 5.0;
}

/// Working REM raster per terrain scale.
inline double rem_cell(terrain::TerrainKind kind) {
  return kind == terrain::TerrainKind::kLarge ? 12.0 : 4.0;
}

struct EpochOutcome {
  double relative_throughput = 0.0;
  double median_rem_error_db = 0.0;
  double flight_time_s = 0.0;
  double measurement_m = 0.0;
  double altitude_m = 0.0;
  core::EpochReport report;
};

/// Median REM error of a bank's cached estimates against exhaustive truth
/// computed at the estimate raster. Requires bank.estimates_current() (call
/// RemBank::estimate_all with the scheme's IDW parameters first; run_epoch
/// and sim::run_uniform leave their banks estimated).
inline double rem_error_db(const sim::World& world, const rem::RemBank& bank) {
  double total = 0.0;
  for (std::size_t i = 0; i < bank.ue_count(); ++i) {
    geo::Grid2D<double> truth(world.area(), bank.cell_size(), 0.0);
    truth.for_each([&](geo::CellIndex c, double& v) {
      v = world.snr_db(geo::Vec3{truth.center_of(c), bank.altitude_m()}, bank.ue_position(i));
    });
    total += rem::median_abs_error_db(bank.estimate_grid(i), truth);
  }
  return total / static_cast<double>(bank.ue_count());
}

/// One SkyRAN epoch with the Gaussian-error localization ablation (fast and
/// representative of the PHY pipeline's ~8 m accuracy) unless `phy` is set.
inline EpochOutcome run_skyran_epoch(sim::World& world, terrain::TerrainKind kind,
                                     double budget_m, std::uint64_t seed, bool phy = false,
                                     core::SkyRan* reuse = nullptr) {
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = budget_m;
  cfg.rem_cell_m = rem_cell(kind);
  if (phy) {
    cfg.localization_mode = core::LocalizationMode::kPhy;
  } else {
    cfg.localization_mode = core::LocalizationMode::kGaussianError;
    cfg.injected_error_m = 8.0;
  }
  core::SkyRan local(world, cfg, seed);
  core::SkyRan& skyran = reuse != nullptr ? *reuse : local;
  const core::EpochReport r = skyran.run_epoch();

  EpochOutcome out;
  out.report = r;
  out.altitude_m = r.altitude_m;
  out.flight_time_s = r.flight_time_s;
  out.measurement_m = r.measurement_flight_m;
  const sim::GroundTruth truth =
      sim::compute_ground_truth(world, r.altitude_m, eval_cell(kind));
  out.relative_throughput = sim::relative_throughput(world, truth, r.position);
  out.median_rem_error_db = rem_error_db(world, skyran.rem_bank());
  return out;
}

/// Uniform baseline at the same altitude/budget, scored against the same
/// style of ground truth.
inline EpochOutcome run_uniform_epoch(sim::World& world, terrain::TerrainKind kind,
                                      double altitude_m, double budget_m,
                                      std::uint64_t seed) {
  sim::UniformConfig cfg;
  cfg.altitude_m = altitude_m;
  cfg.budget_m = budget_m;
  cfg.rem_cell_m = rem_cell(kind);
  const sim::SchemeResult r = sim::run_uniform(world, cfg, seed);
  EpochOutcome out;
  out.altitude_m = altitude_m;
  out.measurement_m = r.flight_length_m;
  out.flight_time_s = r.flight_length_m / uav::kDefaultCruiseMps;
  const sim::GroundTruth truth =
      sim::compute_ground_truth(world, altitude_m, eval_cell(kind));
  out.relative_throughput = sim::relative_throughput(world, truth, r.position);
  out.median_rem_error_db = rem_error_db(world, *r.rems);
  return out;
}

/// min(1, x): relative-throughput display convention (beating the perfect-
/// REM placement counts as 1.0 of achievable).
inline double cap1(double x) { return x > 1.0 ? 1.0 : x; }

/// Plan-and-fly measurement rounds until `budget_m` is spent (the same
/// multi-round loop SkyRan::run_epoch uses): each round re-estimates the
/// bank, replans from the previous endpoint and adds the flown tour to every
/// UE's history. Returns the total distance flown; the bank is left holding
/// the last round's deposits, not yet estimated.
inline double run_planner_rounds(const sim::World& world, rem::RemBank& bank, double budget_m,
                                 double altitude_m, std::uint64_t seed, geo::Mt19937_64& rng) {
  std::vector<rem::TrajectoryHistory> histories(bank.ue_count());
  double remaining = budget_m;
  double flown = 0.0;
  geo::Vec2 start = world.area().center();
  while (remaining > std::max(60.0, 0.1 * budget_m)) {
    bank.estimate_all();
    const rem::PlannedTrajectory plan =
        rem::plan_measurement_trajectory(bank, histories, start, remaining, seed++);
    if (plan.cost_m < 1.0) break;
    sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(plan.path, altitude_m),
                                bank, {}, rng);
    remaining -= plan.cost_m;
    flown += plan.cost_m;
    start = plan.path.points().back();
    for (rem::TrajectoryHistory& h : histories) h.push_back(plan.path);
  }
  return flown;
}

}  // namespace skyran::bench

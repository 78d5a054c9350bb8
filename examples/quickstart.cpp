// Quickstart: deploy a SkyRAN UAV over the campus testbed terrain, run one
// epoch (localize -> altitude -> measurement tour -> REM -> placement) and
// compare the result against the ground-truth optimum and both baselines.
//
//   ./example_quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/skyran.hpp"
#include "mobility/deployment.hpp"
#include "obs/env_session.hpp"
#include "sim/baselines.hpp"
#include "sim/ground_truth.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. A world: 300 m x 300 m campus with office building, lot and forest.
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = seed;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_uniform(world.terrain(), 7, seed + 1);
  std::cout << "World: " << terrain::to_string(wc.terrain_kind) << ", "
            << world.area().width() << " m x " << world.area().height() << " m, "
            << world.ue_positions().size() << " UEs, seed " << seed << "\n";

  // 2. A SkyRAN controller and one full epoch.
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 800.0;
  core::SkyRan skyran(world, cfg, seed + 2);
  const core::EpochReport report = skyran.run_epoch();

  std::cout << "\nEpoch " << report.epoch << " summary:\n"
            << "  localization flight : " << report.localization_flight_m << " m\n"
            << "  operating altitude  : " << report.altitude_m << " m\n"
            << "  measurement tour    : " << report.measurement_flight_m << " m (K="
            << report.planned_k << ")\n"
            << "  total flight        : " << report.total_flight_m << " m ("
            << report.flight_time_s << " s at 30 km/h)\n"
            << "  chosen position     : " << report.position << "\n"
            << "  battery remaining   : " << 100.0 * skyran.battery().remaining_fraction()
            << " %\n";

  // 3. Ground truth and baselines for comparison.
  const sim::GroundTruth truth =
      sim::compute_ground_truth(world, report.altitude_m, 5.0);

  std::vector<geo::Vec2> true_xy;
  for (const geo::Vec3& p : world.ue_positions()) true_xy.push_back(p.xy());
  const sim::SchemeResult centroid =
      sim::run_centroid(true_xy, report.altitude_m, world.area());

  sim::UniformConfig uc;
  uc.altitude_m = report.altitude_m;
  uc.budget_m = report.measurement_flight_m;  // same budget as SkyRAN's tour
  const sim::SchemeResult uniform = sim::run_uniform(world, uc, seed + 3);

  sim::Table table({"scheme", "position", "rel. throughput", "mean tput (Mbit/s)"});
  const auto add = [&](const std::string& name, geo::Vec2 pos) {
    const double rel = sim::relative_throughput(world, truth, pos);
    const double tput =
        world.mean_throughput_bps(geo::Vec3{pos, report.altitude_m}) / 1e6;
    table.add_row({name,
                   "(" + sim::Table::num(pos.x, 0) + ", " + sim::Table::num(pos.y, 0) + ")",
                   sim::Table::num(rel), sim::Table::num(tput, 1)});
  };
  add("optimal", truth.optimal.position);
  add("SkyRAN", report.position);
  add("Uniform", uniform.position);
  add("Centroid", centroid.position);
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}

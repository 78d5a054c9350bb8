// Urban coverage with UE dynamics: a SkyRAN UAV serves six UEs in a dense
// Manhattan-style terrain across multiple epochs. Between epochs half the
// UEs relocate; the controller re-localizes, reuses stored REMs where UEs
// landed near previously mapped positions, and replans its measurement tour.
//
//   ./example_urban_coverage [epochs] [seed]
#include <cstdlib>
#include <iostream>

#include "core/skyran.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "obs/env_session.hpp"
#include "sim/ground_truth.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 17;

  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kNyc;
  wc.seed = seed;
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_uniform(world.terrain(), 6, seed + 1);

  mobility::EpochRelocateMobility mobility(world.terrain(), world.ue_positions(), 0.5,
                                           seed + 2);

  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 700.0;
  core::SkyRan skyran(world, cfg, seed + 3);

  std::cout << "NYC terrain, 6 UEs, half relocate per epoch; REM store reuse radius "
            << cfg.reuse_radius_m << " m\n";

  sim::Table table({"epoch", "flight (m)", "altitude (m)", "reused REMs", "rel. tput",
                    "store size"});
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) {
      mobility.relocate_epoch();
      world.ue_positions() = mobility.positions();
    }
    const core::EpochReport report = skyran.run_epoch();
    const sim::GroundTruth truth =
        sim::compute_ground_truth(world, report.altitude_m, 4.0);
    int reused = 0;
    for (bool r : report.reused_rem) reused += r ? 1 : 0;
    table.add_row({std::to_string(report.epoch), sim::Table::num(report.total_flight_m, 0),
                   sim::Table::num(report.altitude_m, 0),
                   std::to_string(reused) + "/" + std::to_string(report.reused_rem.size()),
                   sim::Table::num(sim::relative_throughput(world, truth, report.position)),
                   std::to_string(skyran.rem_store().size())});
  }
  table.print(std::cout);
  std::cout << "\nTotal flight across epochs: " << skyran.total_flight_m() << " m; battery "
            << sim::Table::num(100.0 * skyran.battery().remaining_fraction(), 1)
            << " % remaining\n";
  return 0;
}

// Figure 12: throughput decay when the UAV does NOT reposition while a
// fraction of UEs walk scripted routes. This curve motivates the dynamic
// epoch trigger: a 10% loss threshold corresponds to a ~10 minute epoch.
//
// Paper reference: relative throughput stays within ~80% of optimal for
// ~10 min; more movers decay faster.
#include "common.hpp"
#include "geo/mt19937.hpp"
#include "mobility/model.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "Figure 12: throughput decay without repositioning (campus, 8 UEs)");

  sim::Table table({"time (min)", "25% UEs move", "50% UEs move", "75% UEs move"});
  const double fractions[] = {0.25, 0.5, 0.75};
  const int minutes[] = {0, 5, 10, 20, 30, 45, 60};

  // rows[t][f] = median relative throughput.
  std::vector<std::vector<double>> rows(std::size(minutes),
                                        std::vector<double>(std::size(fractions), 0.0));
  for (std::size_t fi = 0; fi < std::size(fractions); ++fi) {
    std::vector<std::vector<double>> samples(std::size(minutes));
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 140 + s);
      world.ue_positions() =
          mobility::deploy_mixed_visibility(world.terrain(), 8, 150 + s);
      const auto initial = world.ue_positions();
      const auto n_mobile =
          static_cast<std::size_t>(fractions[fi] * static_cast<double>(initial.size()));
      // Destination mobility: each mover heads to a random walkable spot
      // (arrivals staggered across the hour) and stays there - the scripted
      // human-like movement of the paper's experiment.
      geo::Mt19937_64 route_rng(160 + s);
      std::uniform_real_distribution<double> arrive_min(8.0, 55.0);
      std::vector<mobility::RouteMobility::Route> routes;
      for (std::size_t m = 0; m < n_mobile; ++m) {
        mobility::RouteMobility::Route route;
        route.ue_index = m;
        const geo::Vec2 dest =
            mobility::random_walkable_position(world.terrain(), route_rng()).xy();
        route.waypoints = geo::Path({initial[m].xy(), dest});
        route.loop = false;
        route.speed_mps = std::max(
            0.05, initial[m].xy().dist(dest) / (arrive_min(route_rng) * 60.0));
        routes.push_back(std::move(route));
      }
      mobility::RouteMobility mob(world.terrain(), initial, std::move(routes));

      // Place the UAV optimally for the INITIAL topology, then freeze it.
      const double altitude = 60.0;
      const sim::GroundTruth at_start = sim::compute_ground_truth(
          world, altitude, bench::eval_cell(terrain::TerrainKind::kCampus),
          rem::PlacementObjective::kMaxMean);
      const geo::Vec3 uav{at_start.optimal.position, altitude};
      const double t0 = world.mean_throughput_bps(uav);

      double elapsed_min = 0.0;
      for (std::size_t ti = 0; ti < std::size(minutes); ++ti) {
        const double advance_min = minutes[ti] - elapsed_min;
        mob.advance(advance_min * 60.0);
        elapsed_min = minutes[ti];
        world.ue_positions() = mob.positions();
        samples[ti].push_back(t0 > 0.0 ? world.mean_throughput_bps(uav) / t0 : 0.0);
      }
    }
    for (std::size_t ti = 0; ti < std::size(minutes); ++ti)
      rows[ti][fi] = geo::median(samples[ti]);
  }

  for (std::size_t ti = 0; ti < std::size(minutes); ++ti) {
    table.add_row({std::to_string(minutes[ti]), sim::Table::num(rows[ti][0], 2),
                   sim::Table::num(rows[ti][1], 2), sim::Table::num(rows[ti][2], 2)});
  }
  table.print(std::cout);
  std::cout << "  paper: within ~80% for ~10 min; heavier mobility decays faster\n";
  return 0;
}

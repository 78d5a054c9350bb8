// Figures 5-6: UE-location-aware probing vs a naive corner-start sweep on a
// large (1 km) map. The location-aware trajectory returns useful RF
// information faster: with ~15% of the area probed its REM error is a
// fraction of the naive sweep's.
//
// Paper reference: at 15% probed, ~5 dB (location-aware) vs ~16 dB (naive).

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "rem/planner.hpp"
#include "sim/measurement.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 2);
  sim::print_banner(std::cout,
                    "Figure 6: RF-map error vs fraction of area probed (LARGE, 1 km)");

  const terrain::TerrainKind kind = terrain::TerrainKind::kLarge;
  const double altitude = 80.0;
  const double cell = bench::rem_cell(kind);
  // Interpolation only reaches so far from a measurement; beyond that the
  // map falls back to its background (FSPL for the location-aware scheme,
  // nothing for the naive one, which has no UE locations to seed from).
  rem::IdwParams idw;
  idw.max_radius_m = 120.0;

  sim::Table table({"~fraction probed (%)", "location-aware (dB)", "naive sweep (dB)"});
  // Budgets chosen to span ~5% - 50% of the reachable measurement coverage.
  const double budgets[] = {1500.0, 3000.0, 6000.0, 10000.0, 16000.0};
  for (const double budget : budgets) {
    std::vector<double> aware_err, naive_err, fractions;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(kind, 90 + s, 4.0);
      world.ue_positions() = mobility::deploy_clustered(world.terrain(), 4, 2, 60.0, 95 + s);
      geo::Mt19937_64 rng(100 + s);

      // Location-aware: the SkyRAN planner seeded with UE locations.
      rem::RemBank aware(world.area(), cell, altitude);
      const rf::FsplChannel fspl(world.channel().frequency_hz());
      for (const geo::Vec3& ue : world.ue_positions())
        aware.seed_from_model(aware.add_ue(ue), fspl, world.budget());
      bench::run_planner_rounds(world, aware, budget, altitude, 101 + s, rng);
      aware.estimate_all(idw);
      aware_err.push_back(bench::rem_error_db(world, aware));
      fractions.push_back(100.0 * static_cast<double>(aware.measured_cells(0)) /
                          static_cast<double>(aware.cells_per_ue()));

      // Naive: corner-start zigzag truncated to the same budget.
      rem::RemBank naive(world.area(), cell, altitude);
      for (const geo::Vec3& ue : world.ue_positions()) naive.add_ue(ue);
      const geo::Path sweep = uav::truncate_to_budget(
          uav::zigzag(world.area().inflated(-10.0), 80.0), budget);
      sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(sweep, altitude), naive,
                                  {}, rng);
      naive.estimate_all(idw);
      naive_err.push_back(bench::rem_error_db(world, naive));
    }
    table.add_row({sim::Table::num(geo::median(fractions), 1),
                   sim::Table::num(geo::median(aware_err), 1),
                   sim::Table::num(geo::median(naive_err), 1)});
  }
  table.print(std::cout);
  std::cout << "  paper: ~5 dB (location-aware) vs ~16 dB (naive) at 15% probed\n";
  return 0;
}

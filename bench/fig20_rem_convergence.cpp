// Figure 20: median REM error vs measurement flight time: SkyRAN's gradient-
// guided tour converges to its floor much faster than the Uniform sweep.
//
// Paper reference: SkyRAN ~3 dB by ~82 s; Uniform still ~7 dB at 120 s.

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "rem/planner.hpp"
#include "sim/measurement.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "Figure 20: median REM error vs measurement flight time (campus, 7 UEs)");

  const terrain::TerrainKind kind = terrain::TerrainKind::kCampus;
  const double altitude = 60.0;
  const double cell = bench::rem_cell(kind);

  sim::Table table({"flight time (s)", "SkyRAN trajectory (dB)", "Uniform trajectory (dB)"});
  for (const double seconds : {20.0, 40.0, 60.0, 80.0, 100.0, 120.0}) {
    const double budget = seconds * uav::kDefaultCruiseMps;
    std::vector<double> sky_err, uni_err;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(kind, 250 + s);
      world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 7, 260 + s);
      geo::Mt19937_64 rng(270 + s);

      // SkyRAN: location-seeded planner tour truncated to the budget.
      rem::RemBank sky(world.area(), cell, altitude);
      const rf::FsplChannel fspl(world.channel().frequency_hz());
      for (const geo::Vec3& ue : world.ue_positions())
        sky.seed_from_model(sky.add_ue(ue), fspl, world.budget());
      bench::run_planner_rounds(world, sky, budget, altitude, 280 + s, rng);
      sky.estimate_all();
      sky_err.push_back(bench::rem_error_db(world, sky));

      // Uniform: corner-start zigzag, same budget.
      rem::RemBank uni(world.area(), cell, altitude);
      for (const geo::Vec3& ue : world.ue_positions()) uni.add_ue(ue);
      const geo::Path sweep = uav::truncate_to_budget(
          uav::zigzag(world.area().inflated(-10.0), 40.0), budget);
      sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(sweep, altitude), uni,
                                  {}, rng);
      uni.estimate_all();
      uni_err.push_back(bench::rem_error_db(world, uni));
    }
    table.add_row({sim::Table::num(seconds, 0), sim::Table::num(geo::median(sky_err), 1),
                   sim::Table::num(geo::median(uni_err), 1)});
  }
  table.print(std::cout);
  std::cout << "  paper: SkyRAN reaches ~3 dB by ~82 s; Uniform ~7 dB even at 120 s\n";
  return 0;
}

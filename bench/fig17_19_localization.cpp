// Figure 17: CDF of ToF ranging error for UEs in open / building / forest
// environments (paper: median 4-5 m, environment-independent).
// Figure 18: CDF of the final localization error (paper: median 5-7 m).
// Figure 19: median localization error vs flight length (paper: flattens by
// ~20 m; longer flights do not help much).

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "localization/localizer.hpp"
#include "localization/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 6);

  // ---- Figure 17: ranging error per environment -------------------------
  sim::print_banner(std::cout, "Figure 17: ToF ranging error CDF by environment (campus)");
  std::vector<std::vector<double>> rng_err(3);  // per flavor
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 180 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 3, 190 + s);
    localization::RangingConfig rc;
    const geo::Path track = uav::random_walk(world.area().inflated(-10.0),
                                             world.area().center(), 20.0, 9.0, 200 + s);
    const auto samples =
        uav::fly(uav::FlightPlan::at_altitude(track, 60.0), 1.0 / localization::kGpsRateHz);
    geo::Mt19937_64 rng(210 + s);
    for (std::size_t u = 0; u < 3; ++u) {
      uav::GpsSensor gps(220 + s * 3 + u);
      const localization::GpsTofSeries tuples = localization::collect_gps_tof(
          samples, world.ue_positions()[u], world.channel(), world.budget(), gps, rc, rng);
      for (const localization::GpsTofTuple& t : tuples)
        rng_err[u].push_back(std::abs(
            t.range_m - (t.uav_position.dist(world.ue_positions()[u]) +
                         localization::kProcessingOffsetM)));
    }
  }
  {
    sim::Table table({"environment", "median (m)", "p80", "p95"});
    const char* envs[] = {"beside building", "foliage", "open"};
    for (std::size_t u = 0; u < 3; ++u) {
      table.add_row({envs[u], sim::Table::num(geo::median(rng_err[u]), 1),
                     sim::Table::num(geo::percentile(rng_err[u], 0.8), 1),
                     sim::Table::num(geo::percentile(rng_err[u], 0.95), 1)});
    }
    table.print(std::cout);
    std::cout << "  paper: median 4-5 m, largely environment-independent\n";
  }

  // ---- Figure 18: localization error CDF --------------------------------
  sim::print_banner(std::cout, "Figure 18: localization error CDF (30 m flight)");
  std::vector<double> loc_err;
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 180 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 190 + s);
    localization::LocalizerConfig lc;
    const localization::UeLocalizer localizer(world.channel(), world.budget(), lc);
    const localization::LocalizationRun run =
        localizer.localize(world.area().center(), world.ue_positions(), 230 + s);
    for (std::size_t u = 0; u < run.estimates.size(); ++u)
      if (run.estimates[u].valid)
        loc_err.push_back(run.estimates[u].position.dist(world.ue_positions()[u].xy()));
  }
  {
    sim::Table table({"percentile", "error (m)"});
    for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      table.add_row({sim::Table::num(p, 2), sim::Table::num(geo::percentile(loc_err, p), 1)});
    }
    table.print(std::cout);
    std::cout << "  paper: median 5-7 m within the 300x300 m test area\n";
  }

  // ---- Figure 19: error vs flight length --------------------------------
  sim::print_banner(std::cout, "Figure 19: median localization error vs flight length");
  sim::Table table({"flight length (m)", "median error (m)"});
  for (const double len : {5.0, 10.0, 20.0, 30.0, 45.0, 60.0}) {
    std::vector<double> errs;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 180 + s);
      world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 190 + s);
      localization::LocalizerConfig lc;
      lc.flight_length_m = len;
      lc.flight_leg_m = std::max(5.0, len / 2.5);
      const localization::UeLocalizer localizer(world.channel(), world.budget(), lc);
      const localization::LocalizationRun run =
          localizer.localize(world.area().center(), world.ue_positions(), 240 + s);
      for (std::size_t u = 0; u < run.estimates.size(); ++u)
        if (run.estimates[u].valid)
          errs.push_back(run.estimates[u].position.dist(world.ue_positions()[u].xy()));
    }
    table.add_row({sim::Table::num(len, 0), sim::Table::num(geo::median(errs), 1)});
  }
  table.print(std::cout);
  std::cout << "  paper: error flattens by ~20 m of flight; longer flights gain little\n";
  return 0;
}

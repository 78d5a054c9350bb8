// Ablation of the REM interpolator (paper footnote 3): IDW vs ordinary
// kriging. The paper cites prior work showing kriging's accuracy gain over
// IDW is marginal for radio maps while its cost is much higher; this bench
// measures both on our maps.
#include <chrono>

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "rem/kriging.hpp"
#include "uav/trajectory.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "Ablation: IDW vs ordinary kriging REM interpolation (campus, 600 m sweep)");

  const double altitude = 60.0;
  const double cell = 4.0;

  sim::Table table({"interpolator", "median REM error (dB)", "map time (ms)"});
  std::vector<double> idw_err, krig_err, idw_ms, krig_ms;
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 1000 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 1, 1010 + s);
    const geo::Vec3 ue = world.ue_positions()[0];

    // Gather raw measurements along a budget-limited sweep.
    rem::RemBank measured(world.area(), cell, altitude);
    measured.add_ue(ue);
    const geo::Path sweep = uav::truncate_to_budget(
        uav::zigzag(world.area().inflated(-10.0), 45.0), 600.0);
    geo::Mt19937_64 rng(1020 + s);
    sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(sweep, altitude), measured,
                                {}, rng);

    std::vector<rem::IdwSample> samples;
    geo::Grid2D<double> truth(world.area(), cell, 0.0);
    truth.for_each([&](geo::CellIndex c, double& v) {
      v = world.snr_db(geo::Vec3{truth.center_of(c), altitude}, ue);
      if (const auto m = measured.measured_snr(0, c))
        samples.push_back({truth.center_of(c), *m});
    });

    const auto evaluate = [&](auto&& estimator) {
      std::vector<double> errs;
      truth.for_each([&](geo::CellIndex c, const double& v) {
        const std::optional<double> e = estimator(truth.center_of(c));
        errs.push_back(std::abs((e ? *e : 0.0) - v));
      });
      return geo::median(errs);
    };

    const rem::IdwInterpolator idw(samples, world.area());
    auto t0 = std::chrono::steady_clock::now();
    idw_err.push_back(
        evaluate([&](geo::Vec2 p) { return idw.estimate(p, 8, 2.0, 1e9); }));
    auto t1 = std::chrono::steady_clock::now();

    const rem::Variogram vgram = rem::fit_variogram(samples);
    const rem::KrigingInterpolator kriging(samples, world.area(), vgram);
    auto t2 = std::chrono::steady_clock::now();
    krig_err.push_back(evaluate([&](geo::Vec2 p) { return kriging.estimate(p, 8, 1e9); }));
    auto t3 = std::chrono::steady_clock::now();

    idw_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    krig_ms.push_back(std::chrono::duration<double, std::milli>(t3 - t2).count());
  }
  table.add_row({"IDW (paper's choice)", sim::Table::num(geo::median(idw_err), 2),
                 sim::Table::num(geo::median(idw_ms), 1)});
  table.add_row({"ordinary kriging (fitted variogram)",
                 sim::Table::num(geo::median(krig_err), 2),
                 sim::Table::num(geo::median(krig_ms), 1)});
  table.print(std::cout);
  std::cout << "  paper footnote 3: kriging's gain over IDW is marginal; its cost is not\n";
  return 0;
}

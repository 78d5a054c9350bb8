// Figure 14: per-UE SNR distributions observed during one SkyRAN measurement
// flight. UEs deliberately span LOS and NLOS environments, so their SNR
// histograms differ wildly (the paper shows spreads from ~-20 to ~50 dB).
#include <random>

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "sim/measurement.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  (void)bench::seeds_arg(argc, argv, 1);
  sim::print_banner(std::cout,
                    "Figure 14: per-UE SNR distribution over one measurement flight (campus)");

  sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 170);
  world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 7, 171);
  const double altitude = 60.0;

  // One zigzag measurement flight; log every 100 Hz report per UE.
  const geo::Path track = uav::zigzag(world.area().inflated(-15.0), 60.0);
  const auto samples =
      uav::fly(uav::FlightPlan::at_altitude(track, altitude), 1.0 / 100.0);
  geo::Mt19937_64 rng(172);
  std::normal_distribution<double> fading(0.0, 1.8);

  sim::Table table({"UE", "environment", "p5 (dB)", "median", "p95", "spread"});
  for (std::size_t u = 0; u < world.ue_positions().size(); ++u) {
    std::vector<double> snrs;
    snrs.reserve(samples.size());
    for (const uav::FlightSample& s : samples)
      snrs.push_back(world.snr_db(s.position, world.ue_positions()[u]) + fading(rng));
    const char* env = u % 3 == 0 ? "beside building" : (u % 3 == 1 ? "foliage" : "open");
    const double p5 = geo::percentile(snrs, 0.05);
    const double p95 = geo::percentile(snrs, 0.95);
    table.add_row({"UE" + std::to_string(u + 1), env, sim::Table::num(p5, 1),
                   sim::Table::num(geo::median(snrs), 1), sim::Table::num(p95, 1),
                   sim::Table::num(p95 - p5, 1)});
  }
  table.print(std::cout);
  std::cout << "  paper: SNR histograms span roughly -20..50 dB and differ per UE\n";
  return 0;
}

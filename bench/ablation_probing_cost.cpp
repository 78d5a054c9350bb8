// Quantifies Sec 2.5's "Suboptimal LTE Performance During Probing": TTI-
// level service simulation of the same cell (a) hovering at its placement
// vs (b) flying a measurement tour. Motion makes CQI feedback stale -
// over-selected MCS costs HARQ retransmissions, under-selected wastes
// PRBs - so serving while probing costs real throughput, which is why
// measurement time is a first-class budget in SkyRAN.

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "sim/service.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "Service while hovering vs while probing (campus, 5 full-buffer UEs)");

  sim::Table table({"CQI period (ms)", "hover agg. tput (Mbit/s)", "flying agg. tput",
                    "loss while flying", "HARQ retx (fly)", "staleness (dB)"});
  for (const double cqi_ms : {2.0, 5.0, 10.0, 20.0}) {
    std::vector<double> hover, fly, retx, stale;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 1200 + s);
      world.ue_positions() =
          mobility::deploy_mixed_visibility(world.terrain(), 5, 1210 + s);
      const double altitude = 60.0;
      const sim::GroundTruth truth =
          sim::compute_ground_truth(world, altitude, bench::eval_cell(terrain::TerrainKind::kCampus));
      const geo::Vec3 placement{truth.optimal.position, altitude};

      const std::vector<lte::TrafficSpec> traffic(5, lte::TrafficSpec{});
      sim::ServiceConfig cfg;
      cfg.duration_s = 3.0;
      cfg.cqi_period_ms = cqi_ms;
      geo::Mt19937_64 rng(1220 + s);

      const sim::ServiceReport h =
          sim::run_service_hovering(world, placement, traffic, cfg, rng);
      hover.push_back(h.traffic.aggregate_throughput_bps / 1e6);

      // A measurement-style pass through the area at cruise speed.
      const geo::Path track = uav::truncate_to_budget(
          uav::zigzag(world.area().inflated(-20.0), 60.0),
          cfg.duration_s * uav::kDefaultCruiseMps);
      const sim::ServiceReport f = sim::run_service_flying(
          world, uav::FlightPlan::at_altitude(track, altitude), traffic, cfg, rng);
      fly.push_back(f.traffic.aggregate_throughput_bps / 1e6);
      stale.push_back(f.mean_cqi_staleness_db);
      retx.push_back(static_cast<double>(f.traffic.harq_retx) /
                     static_cast<double>(std::max<std::uint64_t>(1, f.traffic.harq_first_tx)));
    }
    const double hm = geo::median(hover);
    const double fm = geo::median(fly);
    table.add_row({sim::Table::num(cqi_ms, 0), sim::Table::num(hm, 1),
                   sim::Table::num(fm, 1),
                   sim::Table::num(100.0 * (1.0 - fm / hm), 0) + " %",
                   sim::Table::num(100.0 * geo::median(retx), 1) + " %",
                   sim::Table::num(geo::median(stale), 1)});
  }
  table.print(std::cout);
  std::cout << "  paper (Sec 2.5): channel tracking during motion costs throughput; the\n"
            << "  faster the channel changes vs the CQI loop, the worse the loss\n";
  return 0;
}

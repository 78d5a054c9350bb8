// Stadium hotspot: the capacity-augmentation use case from the paper's
// introduction. A crowd pocket forms in a semi-urban area; the SkyRAN UAV
// places itself, then actually serves TTI-by-TTI: CBR video flows per UE,
// round-robin vs proportional-fair scheduling with HARQ, and a mmWave
// backhaul to a gateway truck - showing queueing delay and the backhaul
// bottleneck.
//
//   ./example_stadium_hotspot [seed]
#include <cstdlib>
#include <iostream>

#include "core/skyran.hpp"
#include "geo/mt19937.hpp"
#include "lte/backhaul.hpp"
#include "mobility/deployment.hpp"
#include "obs/env_session.hpp"
#include "sim/ground_truth.hpp"
#include "sim/service.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 31;

  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kLarge;
  wc.seed = seed;
  wc.cell_size_m = 4.0;
  sim::World world(wc);
  // One dense pocket (the stadium crowd) plus two stragglers outside it.
  world.ue_positions() = mobility::deploy_clustered(world.terrain(), 6, 1, 60.0, seed + 1);
  const auto stragglers = mobility::deploy_uniform(world.terrain(), 2, seed + 7);
  world.ue_positions().insert(world.ue_positions().end(), stragglers.begin(),
                              stragglers.end());

  std::cout << "Stadium hotspot: 6 UEs in one pocket + 2 stragglers, 1 km township\n";

  // 1. Place with SkyRAN.
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 1000.0;
  cfg.rem_cell_m = 12.0;
  core::SkyRan skyran(world, cfg, seed + 2);
  const core::EpochReport r = skyran.run_epoch();
  std::cout << "placed at " << r.position << " @ " << r.altitude_m << " m after "
            << sim::Table::num(r.flight_time_s, 0) << " s of flights\n\n";

  // 2. Serve 8 Mbit/s video per UE for 4 seconds under both schedulers.
  lte::TrafficSpec video;
  video.model = lte::TrafficModel::kCbr;
  video.rate_bps = 8e6;
  const std::vector<lte::TrafficSpec> traffic(world.ue_positions().size(), video);
  const geo::Vec3 uav{r.position, r.altitude_m};

  sim::Table table(
      {"scheduler", "agg. served (Mbit/s)", "p50-UE served", "p99 delay (ms)", "HARQ retx"});
  for (const lte::SchedulerPolicy policy :
       {lte::SchedulerPolicy::kRoundRobin, lte::SchedulerPolicy::kProportionalFair}) {
    sim::ServiceConfig sc;
    sc.policy = policy;
    sc.duration_s = 4.0;
    geo::Mt19937_64 rng(seed + 3);
    const lte::TrafficPlaneReport rep =
        sim::run_service_hovering(world, uav, traffic, sc, rng).traffic;
    const double retx_share =
        rep.harq_first_tx > 0
            ? static_cast<double>(rep.harq_retx) / static_cast<double>(rep.harq_first_tx)
            : 0.0;
    table.add_row({policy == lte::SchedulerPolicy::kRoundRobin ? "round robin"
                                                               : "proportional fair",
                   sim::Table::num(rep.aggregate_throughput_bps / 1e6, 1),
                   sim::Table::num(rep.p50_throughput_bps / 1e6, 1),
                   sim::Table::num(rep.p99_delay_ms, 0),
                   sim::Table::num(100.0 * retx_share, 1) + " %"});
  }
  table.print(std::cout);

  // 3. Backhaul check: a mmWave gateway truck parked a few hundred meters
  // from the venue.
  geo::Vec2 crowd{};
  for (const geo::Vec3& ue : world.ue_positions()) crowd += ue.xy();
  crowd = crowd / static_cast<double>(world.ue_positions().size());
  lte::BackhaulConfig bc;
  bc.tech = lte::BackhaulTech::kMmWave;
  bc.gateway = {world.area().clamp(crowd + geo::Vec2{220.0, 160.0}), 12.0};
  const lte::Backhaul backhaul(world.channel(), bc);
  std::vector<double> access;
  for (const geo::Vec3& ue : world.ue_positions())
    access.push_back(world.link_throughput_bps(uav, ue));
  std::cout << "\nmmWave backhaul from " << r.position << " to the gateway: "
            << sim::Table::num(backhaul.capacity_bps(uav) / 1e6, 0)
            << " Mbit/s of pipe -> end-to-end "
            << sim::Table::num(backhaul.end_to_end_mean_bps(access, uav) / 1e6, 1)
            << " Mbit/s mean per-UE coverage rate (full-allocation metric; the"
               " backhaul is not the bottleneck here)\n";
  return 0;
}

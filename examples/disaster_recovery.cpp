// Disaster-recovery scenario: fixed infrastructure is down over a 1 km
// township (the LARGE terrain); survivors cluster at two assembly points.
// The UAV's battery budget limits total measurement flight, so SkyRAN's
// location-aware probing matters. We run several epochs (people move
// between assembly points), tracking battery and service quality, and
// compare against the Uniform sweep under the same budget.
//
// With SKYRAN_CKPT_DIR set, the session is saved after every epoch
// (`ckpt-<epoch>.skyc`) and a rerun resumes from the newest generation, the
// way skyran_cli does; the table then lists only the epochs the rerun
// executes. A SIGINT/SIGTERM between epochs exits cleanly, and telemetry is
// flushed when SKYRAN_METRICS_OUT is set. An uninterrupted run's stdout is
// byte-identical either way.
//
//   ./example_disaster_recovery [seed]
#include <cstdlib>
#include <iostream>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "obs/env_session.hpp"
#include "sim/baselines.hpp"
#include "sim/generation_store.hpp"
#include "sim/ground_truth.hpp"
#include "sim/shutdown.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 23;

  sim::install_shutdown_handlers();

  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kLarge;
  wc.seed = seed;
  wc.cell_size_m = 4.0;  // 1 km x 1 km at 4 m raster
  sim::World world(wc);
  world.ue_positions() = mobility::deploy_clustered(world.terrain(), 10, 2, 50.0, seed + 1);
  mobility::EpochRelocateMobility mob(world.terrain(), world.ue_positions(), 0.3, seed + 2);

  std::cout << "Disaster recovery: 1 km x 1 km township, 10 UEs at 2 assembly points\n"
            << "Per-epoch measurement budget: 1200 m (~2.4 min at 30 km/h)\n";

  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 1200.0;
  cfg.rem_cell_m = 12.0;
  cfg.localizer.flight_length_m = 30.0;
  core::SkyRan skyran(world, cfg, seed + 3);

  // Resume: the snapshot restores the session and the world's UE positions;
  // the relocation model's own RNG is replayed up to the resumed epoch.
  sim::EnvCheckpoints checkpoints("ckpt-", ".skyc");
  const int resumed = checkpoints.resume(
      [&](std::istream& is) { skyran.restore(core::Snapshot::load(is)); });
  for (int e = 1; e < resumed; ++e) mob.relocate_epoch();

  sim::Table table({"epoch", "SkyRAN rel. tput", "Uniform rel. tput", "min UE SNR (dB)",
                    "battery left", "hover endurance left"});
  for (int e = resumed; e < 3; ++e) {
    if (sim::shutdown_requested()) {
      // Orderly exit: the state as of the last completed epoch is already
      // checkpointed below; just note the interruption off the stdout
      // contract and stop driving new epochs.
      std::cerr << "shutdown requested; stopping after " << skyran.epochs_run()
                << " completed epoch(s)\n";
      break;
    }
    if (e > 0) {
      mob.relocate_epoch();  // 30% of survivors move between points
      world.ue_positions() = mob.positions();
    }
    const core::EpochReport r = skyran.run_epoch();
    checkpoints.save(skyran.epochs_run(), [&](std::ostream& os) { skyran.snapshot().save(os); });
    const sim::GroundTruth truth = sim::compute_ground_truth(world, r.altitude_m, 15.0);
    const double sky_rel = sim::relative_throughput(world, truth, r.position);

    sim::UniformConfig uc;
    uc.altitude_m = r.altitude_m;
    uc.budget_m = 1200.0;
    uc.rem_cell_m = 12.0;
    const sim::SchemeResult uni = sim::run_uniform(world, uc, seed + 10 + e);
    const double uni_rel = sim::relative_throughput(world, truth, uni.position);

    table.add_row(
        {std::to_string(r.epoch), sim::Table::num(std::min(1.0, sky_rel), 2),
         sim::Table::num(std::min(1.0, uni_rel), 2),
         sim::Table::num(world.min_snr_db({r.position, r.altitude_m}), 1),
         sim::Table::num(100.0 * skyran.battery().remaining_fraction(), 1) + " %",
         sim::Table::num(skyran.battery().hover_endurance_s() / 60.0, 0) + " min"});
  }
  table.print(std::cout);
  std::cout << "\nTotal measurement flight: " << sim::Table::num(skyran.total_flight_m(), 0)
            << " m across " << skyran.epochs_run() << " epochs\n";
  return 0;
}

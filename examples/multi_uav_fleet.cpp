// Multi-UAV fleet (the paper's Sec 7-8 extension), now on fleet::Fleet:
// three UAV cells share one co-channel carrier over a 1 km township, UEs
// attach to the strongest CIO-biased cell each epoch, a commuter UE marches
// between coverage areas (its A3 handovers show up in the table), and the
// closed steering loop drains a morning hot spot by walking CIOs.
//
// A static partition of the UEs into per-UAV clusters at epoch 0 would
// leave a UE that walked away from its cluster camped on a cell it could
// barely hear, with no handover ever visible. The fleet layer re-evaluates
// attachment every epoch (measure -> A3 decide -> apply), so the commuter
// hands over, deterministically, mid-run.
//
// With SKYRAN_CKPT_DIR set, the fleet's dynamic state is saved after every
// epoch (`fleet-<epoch>.skyf`, Fleet::save's bytes) and a rerun restores the
// newest generation into this identically built fleet and carries on; the
// table then lists only the epochs the rerun executes. A SIGINT/SIGTERM
// between epochs exits cleanly, and telemetry is flushed when
// SKYRAN_METRICS_OUT is set. An uninterrupted run's stdout is
// byte-identical either way.
//
//   ./example_multi_uav_fleet [epochs] [seed]
#include <cstdlib>
#include <iostream>

#include "fleet/fleet.hpp"
#include "obs/env_session.hpp"
#include "rf/channel.hpp"
#include "sim/generation_store.hpp"
#include "sim/shutdown.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 16;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 11;

  sim::install_shutdown_handlers();

  const rf::FsplChannel fspl(2.6e9);
  fleet::FleetConfig cfg;
  cfg.seed = seed;
  cfg.ttis_per_epoch = 100;
  cfg.steering.period_epochs = 1;
  cfg.steering.step_db = 0.5;
  cfg.a3.time_to_trigger_epochs = 2;
  fleet::Fleet fleet(cfg, fspl);

  // Three UAV cells along the township's main axis.
  fleet.add_cell({200.0, 500.0, 60.0});
  fleet.add_cell({500.0, 500.0, 60.0});
  fleet.add_cell({800.0, 500.0, 60.0});

  lte::TrafficSpec cbr;
  cbr.model = lte::TrafficModel::kCbr;
  // Morning hot spot: a dense pocket under cell 0.
  cbr.rate_bps = 0.55e6;
  for (int i = 0; i < 18; ++i)
    fleet.add_ue({190.0 + 8.0 * i, 440.0 + 7.0 * i, 1.5}, cbr);
  // Background users under cells 1 and 2.
  cbr.rate_bps = 1e5;
  for (int i = 0; i < 5; ++i) fleet.add_ue({470.0 + 15.0 * i, 530.0, 1.5}, cbr);
  for (int i = 0; i < 5; ++i) fleet.add_ue({770.0 + 15.0 * i, 460.0, 1.5}, cbr);
  // The commuter: walks from cell 0's pocket to cell 2's, 70 m per epoch.
  const std::size_t commuter = fleet.add_ue({180.0, 500.0, 1.5}, cbr);

  std::cout << "Fleet: 3 UAV cells, 29 UEs, one commuter crossing the township\n";

  // The commuter's position is a function of the epoch, so a resumed fleet
  // needs nothing replayed.
  sim::EnvCheckpoints checkpoints("fleet-", ".skyf");
  const int resumed = checkpoints.resume([&](std::istream& is) { fleet.restore(is); });

  sim::Table table({"epoch", "commuter cell", "HOs", "util c0/c1/c2", "CIO c0/c1/c2 (dB)",
                    "mean SINR (dB)"});
  for (int e = resumed + 1; e <= epochs; ++e) {
    if (sim::shutdown_requested()) {
      std::cerr << "shutdown requested; stopping after epoch " << (e - 1) << "\n";
      break;
    }
    fleet.set_ue_position(commuter, {180.0 + 70.0 * (e - 1), 500.0, 1.5});
    const fleet::FleetEpochReport r = fleet.run_epoch();
    checkpoints.save(fleet.epochs_run(), [&](std::ostream& os) { fleet.save(os); });
    table.add_row({std::to_string(e), std::to_string(fleet.serving_cell(commuter)),
                   std::to_string(r.ho_successes),
                   sim::Table::num(r.cell_prb_util[0], 2) + "/" +
                       sim::Table::num(r.cell_prb_util[1], 2) + "/" +
                       sim::Table::num(r.cell_prb_util[2], 2),
                   sim::Table::num(fleet.cio_db(0), 1) + "/" +
                       sim::Table::num(fleet.cio_db(1), 1) + "/" +
                       sim::Table::num(fleet.cio_db(2), 1),
                   sim::Table::num(r.mean_sinr_db, 1)});
  }
  table.print(std::cout);
  std::cout << "\nHandovers are A3 events (neighbor RSRP + CIO beats serving by offset +\n"
               "hysteresis for TTT epochs); the steering loop biases CIOs toward the\n"
               "least-loaded cell, draining the morning hot spot under cell 0.\n"
            << "Totals: " << fleet.total_handovers() << " handovers, "
            << fleet.total_pingpongs() << " ping-pongs, " << fleet.total_steering_steps()
            << " steering steps\n";
  return 0;
}

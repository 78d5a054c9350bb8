// Mini day-in-the-life campaign: two hours of the scenario::Campaign engine
// at toy scale — diurnal traffic, commuter flow, weather fronts, flash
// crowds and battery-swap logistics composed over the multi-UAV fleet.
// Deterministic by construction: the printed per-hour table and digests are
// byte-identical on every run and worker count, which is exactly what the
// golden-replay test (tests/golden/example_campaign_mini.stdout) pins.
//
// With SKYRAN_CKPT_DIR set, the campaign is saved after every hour
// (`camp-<hour>.skyd`) and a rerun resumes from the newest generation. The
// table is printed from the campaign's report, which carries every hour's
// row, so a resumed run prints the same stdout as an uninterrupted one.
//
//   ./example_campaign_mini [seed]
#include <cstdlib>
#include <iostream>

#include "obs/env_session.hpp"
#include "scenario/campaign.hpp"
#include "sim/generation_store.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 17;

  scenario::CampaignConfig cfg = scenario::example_day_config(seed, 60, 2);
  cfg.hours = 2;
  cfg.epochs_per_hour = 3;
  cfg.fleet.ttis_per_epoch = 60;
  cfg.base_rate_bps = 3e5;
  cfg.threads = 0;  // auto: SKYRAN_THREADS, else the hardware

  std::cout << "Mini campaign: " << cfg.n_ues << " UEs, "
            << cfg.cells_per_side * cfg.cells_per_side << " UAV cells, " << cfg.hours
            << " h x " << cfg.epochs_per_hour << " epochs\n\n";

  scenario::Campaign campaign(cfg);
  sim::EnvCheckpoints checkpoints("camp-", ".skyd");
  checkpoints.resume([&](std::istream& is) { campaign.restore(is); });
  while (!campaign.done()) {
    campaign.run_hour();
    checkpoints.save(campaign.hours_run(), [&](std::ostream& os) { campaign.save(os); });
  }

  const scenario::CampaignReport rep = campaign.report();
  sim::Table table({"hour", "diurnal", "avail", "p50 tput (kbit/s)", "handovers", "swaps"});
  for (const scenario::HourReport& hr : rep.by_hour) {
    table.add_row({sim::Table::num(hr.hour, 0), sim::Table::num(hr.diurnal_level, 3),
                   sim::Table::num(hr.availability, 3),
                   sim::Table::num(hr.p50_tput_bps / 1e3, 1),
                   sim::Table::num(static_cast<double>(hr.handovers), 0),
                   sim::Table::num(static_cast<double>(hr.swaps_started), 0)});
  }
  table.print(std::cout);
  std::cout << "\navailability " << sim::Table::num(rep.availability, 4) << ", energy "
            << sim::Table::num(rep.energy_wh, 1) << " Wh ("
            << sim::Table::num(rep.energy_wh_per_gbit, 1) << " Wh/Gbit), "
            << rep.handovers << " handovers, " << rep.swaps << " swaps\n";
  std::cout << "campaign digest " << scenario::campaign_digest(rep) << ", state hash "
            << campaign.state_hash() << "\n";
  return 0;
}

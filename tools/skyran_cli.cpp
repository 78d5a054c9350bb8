// skyran_cli: run a configurable SkyRAN scenario from the command line and
// print (or export as CSV) per-epoch results. The one-stop way to poke at
// the system without writing code.
//
//   skyran_cli --terrain nyc --ues 6 --epochs 4 --budget 800 --move 0.5
//              --scheme skyran --seed 7 [--csv out.csv] [--phy-localization]
//
// Schemes: skyran | uniform | centroid | random.
// With $SKYRAN_METRICS_OUT set, the run's counters, histograms and trace
// spans are dumped there as JSON lines (docs/OBSERVABILITY.md); render them
// with tools/metrics_report.py.
//
// With $SKYRAN_CKPT_DIR set, the skyran scheme saves the session after every
// epoch (`ckpt-<epoch>.skyc`) and, on start, resumes from the newest
// generation there: the table then lists only the epochs this run executes.
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/snapshot.hpp"
#include "mobility/model.hpp"
#include "obs/env_session.hpp"
#include "sim/generation_store.hpp"
#include "skyran.hpp"
#include "sim/table.hpp"

namespace {

using namespace skyran;

struct CliOptions {
  terrain::TerrainKind terrain = terrain::TerrainKind::kCampus;
  int ues = 6;
  int epochs = 1;
  double budget_m = 800.0;
  double move_fraction = 0.5;
  std::string scheme = "skyran";
  std::uint64_t seed = 1;
  std::optional<std::string> csv_path;
  bool phy_localization = false;
  bool clustered = false;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: " << argv0
            << " [--terrain flat|campus|rural|nyc|large] [--ues N] [--epochs N]\n"
               "       [--budget METERS] [--move FRACTION] [--scheme skyran|uniform|"
               "centroid|random]\n"
               "       [--seed N] [--csv PATH] [--phy-localization] [--clustered]\n"
               "environment:\n"
               "  SKYRAN_METRICS_OUT=PATH  dump telemetry as JSON lines\n"
               "                           (docs/OBSERVABILITY.md; tools/metrics_report.py)\n"
               "  SKYRAN_CKPT_DIR=DIR      checkpoint and resume the skyran scheme\n";
  std::exit(error.empty() ? 0 : 2);
}

terrain::TerrainKind parse_terrain(const std::string& s, const char* argv0) {
  if (s == "flat") return terrain::TerrainKind::kFlat;
  if (s == "campus") return terrain::TerrainKind::kCampus;
  if (s == "rural") return terrain::TerrainKind::kRural;
  if (s == "nyc") return terrain::TerrainKind::kNyc;
  if (s == "large") return terrain::TerrainKind::kLarge;
  usage(argv0, "unknown terrain '" + s + "'");
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage(argv[0]);
    else if (a == "--terrain") opt.terrain = parse_terrain(next(i), argv[0]);
    else if (a == "--ues") opt.ues = std::stoi(next(i));
    else if (a == "--epochs") opt.epochs = std::stoi(next(i));
    else if (a == "--budget") opt.budget_m = std::stod(next(i));
    else if (a == "--move") opt.move_fraction = std::stod(next(i));
    else if (a == "--scheme") opt.scheme = next(i);
    else if (a == "--seed") opt.seed = std::stoull(next(i));
    else if (a == "--csv") opt.csv_path = next(i);
    else if (a == "--phy-localization") opt.phy_localization = true;
    else if (a == "--clustered") opt.clustered = true;
    else usage(argv[0], "unknown flag '" + a + "'");
  }
  if (opt.ues < 1) usage(argv[0], "--ues must be >= 1");
  if (opt.epochs < 1) usage(argv[0], "--epochs must be >= 1");
  if (opt.move_fraction < 0.0 || opt.move_fraction > 1.0)
    usage(argv[0], "--move must be in [0, 1]");
  if (opt.scheme != "skyran" && opt.scheme != "uniform" && opt.scheme != "centroid" &&
      opt.scheme != "random")
    usage(argv[0], "unknown scheme '" + opt.scheme + "'");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  sim::WorldConfig wc;
  wc.terrain_kind = opt.terrain;
  wc.seed = opt.seed;
  wc.cell_size_m = opt.terrain == terrain::TerrainKind::kLarge ? 4.0 : 1.0;
  sim::World world(wc);
  world.ue_positions() =
      opt.clustered
          ? mobility::deploy_clustered(world.terrain(), opt.ues, 2, 30.0, opt.seed + 1)
          : mobility::deploy_uniform(world.terrain(), opt.ues, opt.seed + 1);
  mobility::EpochRelocateMobility mob(world.terrain(), world.ue_positions(),
                                      opt.move_fraction, opt.seed + 2);

  const double rem_cell = opt.terrain == terrain::TerrainKind::kLarge ? 12.0 : 4.0;
  const double eval_cell = opt.terrain == terrain::TerrainKind::kLarge ? 15.0 : 5.0;

  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = opt.budget_m;
  cfg.rem_cell_m = rem_cell;
  if (opt.phy_localization) {
    cfg.localization_mode = core::LocalizationMode::kPhy;
  } else {
    cfg.localization_mode = core::LocalizationMode::kGaussianError;
    cfg.injected_error_m = 8.0;
  }
  core::SkyRan skyran(world, cfg, opt.seed + 3);

  std::cout << "scheme=" << opt.scheme << " terrain=" << terrain::to_string(opt.terrain)
            << " ues=" << opt.ues << " epochs=" << opt.epochs << " budget=" << opt.budget_m
            << "m move=" << opt.move_fraction << " seed=" << opt.seed << "\n";

  // Resume: the snapshot restores the session and the world's UE positions;
  // the relocation model's own RNG is replayed up to the resumed epoch.
  sim::EnvCheckpoints checkpoints("ckpt-", ".skyc");
  const int resumed =
      opt.scheme == "skyran"
          ? checkpoints.resume(
                [&](std::istream& is) { skyran.restore(core::Snapshot::load(is)); })
          : 0;
  for (int e = 1; e < resumed; ++e) mob.relocate_epoch();

  sim::Table table({"epoch", "position", "altitude_m", "flight_m", "rel_throughput",
                    "mean_tput_mbps", "min_snr_db"});
  for (int e = resumed; e < opt.epochs; ++e) {
    if (e > 0) {
      mob.relocate_epoch();
      world.ue_positions() = mob.positions();
    }

    geo::Vec2 position;
    double altitude = 0.0;
    double flight = 0.0;
    if (opt.scheme == "skyran") {
      const core::EpochReport r = skyran.run_epoch();
      checkpoints.save(skyran.epochs_run(),
                       [&](std::ostream& os) { skyran.snapshot().save(os); });
      position = r.position;
      altitude = r.altitude_m;
      flight = r.total_flight_m;
    } else {
      altitude = 60.0;
      if (opt.scheme == "uniform") {
        sim::UniformConfig uc;
        uc.altitude_m = altitude;
        uc.budget_m = opt.budget_m;
        uc.rem_cell_m = rem_cell;
        const sim::SchemeResult r = sim::run_uniform(world, uc, opt.seed + 10 + e);
        position = r.position;
        flight = r.flight_length_m;
      } else if (opt.scheme == "centroid") {
        std::vector<geo::Vec2> xy;
        for (const geo::Vec3& u : world.ue_positions()) xy.push_back(u.xy());
        position = sim::run_centroid(xy, altitude, world.area()).position;
      } else {
        position = sim::run_random(world, altitude, opt.seed + 10 + e).position;
      }
    }

    const sim::GroundTruth truth = sim::compute_ground_truth(world, altitude, eval_cell);
    const double rel = sim::relative_throughput(world, truth, position);
    table.add_row({std::to_string(e + 1),
                   "(" + sim::Table::num(position.x, 0) + ";" +
                       sim::Table::num(position.y, 0) + ")",
                   sim::Table::num(altitude, 0), sim::Table::num(flight, 0),
                   sim::Table::num(std::min(rel, 1.0), 3),
                   sim::Table::num(
                       world.mean_throughput_bps({position, altitude}) / 1e6, 1),
                   sim::Table::num(world.min_snr_db({position, altitude}), 1)});
  }
  table.print(std::cout);

  if (opt.csv_path) {
    std::ofstream os(*opt.csv_path);
    if (!os) {
      std::cerr << "error: cannot open " << *opt.csv_path << "\n";
      return 1;
    }
    table.write_csv(os);
    std::cout << "wrote " << *opt.csv_path << "\n";
  }
  return 0;
}

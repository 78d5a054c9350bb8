// Ablations of the ToF estimator's design choices (Sec 3.2.2):
//   (a) SRS upsampling factor K (the paper picks K = 4 as the accuracy/SNR
//       sweet spot);
//   (b) first-arrival (leading-edge) detection vs plain max-peak under NLOS
//       multipath;
//   (c) LTE carrier bandwidth (sample-duration resolution scales with fs).
#include <random>

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "lte/ranging.hpp"
#include "lte/srs_channel.hpp"
#include "rf/units.hpp"

namespace {

using namespace skyran;

double median_abs_ranging_error(const lte::TofEstimator& est, const lte::SrsSymbol& tx,
                                double snr_db, bool nlos, int trials,
                                geo::Mt19937_64& rng) {
  std::vector<double> errs;
  std::uniform_real_distribution<double> dist(60.0, 280.0);
  for (int i = 0; i < trials; ++i) {
    const double d = dist(rng);
    lte::SrsChannelParams ch;
    ch.delay_s = d / rf::kSpeedOfLight;
    ch.snr_db = snr_db;
    // Resolvable echoes (excess beyond the ~116 ns correlation lobe) expose
    // the max-peak estimator's failure mode.
    if (nlos) lte::make_nlos_taps(3, 400e-9, -1.0, 3.0, rng, ch.taps);
    const lte::TofEstimate e = est.estimate(lte::apply_srs_channel(tx, ch, rng));
    errs.push_back(std::abs(e.distance_m - d));
  }
  return geo::median(errs);
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = 40 * bench::seeds_arg(argc, argv, 1);

  sim::print_banner(std::cout,
                    "Ablation (a): SRS upsampling factor K, raw eq. 3 maxpos vs with peak "
                    "interpolation (10 MHz, LOS, 10 dB)");
  {
    lte::SrsConfig cfg;
    const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
    sim::Table table({"K", "raw maxpos error (m)", "with interpolation (m)"});
    for (const int k : {1, 2, 4, 8, 16}) {
      geo::Mt19937_64 rng(900);
      const lte::TofEstimator raw(cfg, k, 0.0, 0.0, false);
      const lte::TofEstimator refined(cfg, k);
      const double raw_err = median_abs_ranging_error(raw, tx, 10.0, false, trials, rng);
      const double ref_err = median_abs_ranging_error(refined, tx, 10.0, false, trials, rng);
      table.add_row({std::to_string(k), sim::Table::num(raw_err, 2),
                     sim::Table::num(ref_err, 2)});
    }
    table.print(std::cout);
    std::cout << "  paper: raw maxpos quantizes to 19.5/K m; K=4 is its sweet spot\n";
  }

  sim::print_banner(std::cout, "Ablation (b): leading-edge detection under NLOS multipath");
  {
    lte::SrsConfig cfg;
    const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
    sim::Table table({"detector", "LOS error (m)", "NLOS error (m)"});
    for (const double frac : {0.0, 0.6}) {
      const lte::TofEstimator est(cfg, 4, 0.0, frac);
      geo::Mt19937_64 rng(901);
      const double los = median_abs_ranging_error(est, tx, 10.0, false, trials, rng);
      const double nlos = median_abs_ranging_error(est, tx, 10.0, true, trials, rng);
      table.add_row({frac > 0.0 ? "leading edge (0.6)" : "max peak (paper eq. 3)",
                     sim::Table::num(los, 2), sim::Table::num(nlos, 2)});
    }
    table.print(std::cout);
  }

  sim::print_banner(std::cout, "Ablation (c): carrier bandwidth (K = 4, LOS, 10 dB)");
  {
    sim::Table table({"bandwidth (MHz)", "m per sample", "median ranging error (m)"});
    for (const double mhz : {5.0, 10.0, 20.0}) {
      lte::SrsConfig cfg;
      cfg.carrier = lte::bandwidth_config(mhz);
      cfg.sounding_prb = std::min(cfg.carrier.n_prb, 48);
      const lte::SrsSymbol tx = lte::make_srs_symbol(cfg);
      const lte::TofEstimator est(cfg, 4);
      geo::Mt19937_64 rng(902);
      table.add_row({sim::Table::num(mhz, 0),
                     sim::Table::num(cfg.carrier.meters_per_sample(), 1),
                     sim::Table::num(
                         median_abs_ranging_error(est, tx, 10.0, false, trials, rng), 2)});
    }
    table.print(std::cout);
  }
  return 0;
}

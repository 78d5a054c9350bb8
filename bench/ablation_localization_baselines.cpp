// Reproduction of the paper's related-work localization comparison (Sec 2.4
// and Sec 6): macro-cell techniques deliver tens to hundreds of meters of
// error; SkyRAN's flight-aperture ToF multilateration is an order of
// magnitude better, from a single moving eNodeB with no inter-site sync.

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "localization/baselines.hpp"
#include "localization/localizer.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 4);
  sim::print_banner(std::cout,
                    "Localization baselines (campus, 6 mixed-visibility UEs per seed)");

  std::vector<double> skyran_err, ecid_err, fp_err, tdoa_err;
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 1100 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 1110 + s);
    geo::Mt19937_64 rng(1120 + s);

    // SkyRAN: the full SRS/ToF/joint-multilateration pipeline.
    localization::LocalizerConfig lc;
    const localization::UeLocalizer localizer(world.channel(), world.budget(), lc);
    const localization::LocalizationRun run =
        localizer.localize(world.area().center(), world.ue_positions(), 1130 + s);

    // Macro infrastructure for the baselines.
    const std::vector<geo::Vec3> sites = localization::default_macro_sites(world.area());
    const localization::FingerprintDatabase db(world.channel(), world.budget(), sites,
                                               world.area(), {}, 1140 + s);

    for (std::size_t u = 0; u < world.ue_positions().size(); ++u) {
      const geo::Vec3 ue = world.ue_positions()[u];
      if (run.estimates[u].valid)
        skyran_err.push_back(run.estimates[u].position.dist(ue.xy()));
      ecid_err.push_back(
          localization::ecid_localize(sites[0], ue, world.area(), {}, rng).dist(ue.xy()));
      fp_err.push_back(db.localize(ue, rng).dist(ue.xy()));
      tdoa_err.push_back(
          localization::tdoa_localize(sites, ue, world.area(), {}, rng).dist(ue.xy()));
    }
  }

  sim::Table table({"technique", "median error (m)", "p90 (m)", "needs"});
  const auto row = [&](const char* name, const std::vector<double>& errs, const char* needs) {
    table.add_row({name, sim::Table::num(geo::median(errs), 1),
                   sim::Table::num(geo::percentile(errs, 0.9), 1), needs});
  };
  row("SkyRAN (ToF + flight aperture)", skyran_err, "1 mobile eNB");
  row("UL-TDoA (3 macro sites)", tdoa_err, "3 synced eNBs");
  row("RSS fingerprinting (k-NN)", fp_err, "war-driving DB");
  row("E-CID (TA ring)", ecid_err, "1 macro eNB");
  table.print(std::cout);
  std::cout << "  paper: macro techniques 40-100+ m; SkyRAN sub-10 m (Sec 6)\n";
  return 0;
}

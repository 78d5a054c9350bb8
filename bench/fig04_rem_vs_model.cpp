// Figure 4: data-driven REM vs propagation-model (FSPL) map, median error
// against exhaustively measured ground truth, over four terrains with 3 UEs
// each.
//
// Paper reference: data-driven ~2-4 dB, model-based up to ~10 dB (4x worse
// on the harshest terrain).

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "sim/measurement.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "Figure 4: estimated RF-map error vs ground truth, 4 terrains, 3 UEs");

  const terrain::TerrainKind kinds[] = {
      terrain::TerrainKind::kRural, terrain::TerrainKind::kCampus,
      terrain::TerrainKind::kLarge, terrain::TerrainKind::kNyc};

  sim::Table table({"terrain", "data-driven (dB)", "model-based (dB)", "model/data ratio"});
  for (const terrain::TerrainKind kind : kinds) {
    std::vector<double> data_err, model_err;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(kind, 60 + s, kind == terrain::TerrainKind::kLarge
                                                             ? 4.0
                                                             : 1.0);
      world.ue_positions() =
          mobility::deploy_mixed_visibility(world.terrain(), 3, 70 + s);
      const double altitude = 60.0;
      const double cell = bench::rem_cell(kind);

      // Data-driven REM: dense exhaustive-style measurement sweep.
      rem::RemBank rems(world.area(), cell, altitude);
      for (const geo::Vec3& ue : world.ue_positions()) rems.add_ue(ue);
      const geo::Path sweep = uav::zigzag(world.area().inflated(-10.0),
                                          kind == terrain::TerrainKind::kLarge ? 90.0 : 35.0);
      geo::Mt19937_64 rng(80 + s);
      sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(sweep, altitude), rems,
                                  {}, rng);
      rems.estimate_all();
      data_err.push_back(bench::rem_error_db(world, rems));

      // Model-based map: FSPL from the (known) UE locations.
      const rf::FsplChannel fspl(world.channel().frequency_hz());
      rem::RemBank models(world.area(), cell, altitude);
      for (const geo::Vec3& ue : world.ue_positions())
        models.seed_from_model(models.add_ue(ue), fspl, world.budget());
      models.estimate_all();
      model_err.push_back(bench::rem_error_db(world, models));
    }
    const double d = geo::median(data_err);
    const double m = geo::median(model_err);
    table.add_row({terrain::to_string(kind), sim::Table::num(d, 1), sim::Table::num(m, 1),
                   sim::Table::num(m / d, 1)});
  }
  table.print(std::cout);
  std::cout << "  paper: data-driven 2-4 dB, model up to ~10 dB (ratio up to 4x)\n";
  return 0;
}

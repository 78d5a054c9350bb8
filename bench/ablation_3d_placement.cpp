// What does the paper's single-altitude simplification cost? (Sec 3.3.1
// argues 3-D REMs are not worth their O(N^3) probing overhead because
// nearby-altitude maps are correlated.) We build exhaustive ground-truth
// REMs at a ladder of altitudes, place (a) at the paper's single
// min-path-loss altitude and (b) over the full 3-D stack, and compare the
// objective plus the implied probing overhead.
#include "common.hpp"
#include "rem/layered.hpp"

int main(int argc, char** argv) {
  using namespace skyran;
  const int n_seeds = bench::seeds_arg(argc, argv, 3);
  sim::print_banner(std::cout,
                    "3-D vs single-altitude placement (campus, 6 UEs, ladder 40/60/80/100 m)");

  const std::vector<double> ladder{40.0, 60.0, 80.0, 100.0};
  const terrain::TerrainKind kind = terrain::TerrainKind::kCampus;

  sim::Table table({"seed", "1-alt min-SNR (dB)", "3-D min-SNR", "gain (dB)",
                    "3-D altitude", "probing multiplier"});
  std::vector<double> gains;
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(kind, 1500 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 1510 + s);

    // Exhaustive ground-truth stacks (perfect-REM comparison isolates the
    // placement question from measurement noise).
    std::vector<rem::LayeredRem> stacks;
    for (const geo::Vec3& ue : world.ue_positions()) {
      rem::LayeredRem stack(world.area(), bench::eval_cell(kind), ladder, ue);
      for (std::size_t li = 0; li < ladder.size(); ++li) {
        const geo::Grid2D<double> gt =
            sim::ground_truth_rem(world, ue, ladder[li], bench::eval_cell(kind));
        gt.for_each([&](geo::CellIndex c, const double& v) {
          stack.layer(li).add_measurement(0, gt.center_of(c), v);
        });
      }
      stacks.push_back(std::move(stack));
    }

    // (a) the paper's single altitude: min mean path loss above the centroid.
    std::vector<geo::Vec3> ue3(world.ue_positions());
    geo::Vec2 centroid{};
    for (const geo::Vec3& u : ue3) centroid += u.xy();
    centroid = world.area().clamp(centroid / static_cast<double>(ue3.size()));
    const rem::AltitudeSearchResult alt =
        rem::find_optimal_altitude(world.channel(), centroid, ue3, 120.0, 40.0, 20.0);
    const std::size_t single_layer = stacks.front().nearest_layer(alt.altitude_m);
    std::vector<geo::Grid2D<double>> single_maps;
    for (const rem::LayeredRem& st : stacks)
      single_maps.push_back(st.layer_estimate(single_layer));
    const rem::Placement p1 = rem::choose_placement_feasible(
        geo::views_of(single_maps), world.terrain(), ladder[single_layer]);

    // (b) full 3-D search over the ladder.
    const rem::Placement3D p3 = rem::choose_placement_3d(stacks, world.terrain());

    const double gain = p3.objective_snr_db - p1.objective_snr_db;
    gains.push_back(gain);
    table.add_row({std::to_string(1500 + s), sim::Table::num(p1.objective_snr_db, 1),
                   sim::Table::num(p3.objective_snr_db, 1), sim::Table::num(gain, 1),
                   sim::Table::num(p3.altitude_m, 0),
                   std::to_string(ladder.size()) + "x"});
  }
  table.print(std::cout);
  std::cout << "  median gain: " << sim::Table::num(geo::median(gains), 1)
            << " dB for " << ladder.size()
            << "x the probing - the paper's single-altitude call (Sec 3.3.1)\n";
  return 0;
}

#include "sim/ground_truth.hpp"

#include "geo/contract.hpp"

namespace skyran::sim {

geo::Grid2D<double> ground_truth_rem(const World& world, geo::Vec3 ue, double altitude_m,
                                     double cell_size_m) {
  geo::Grid2D<double> out(world.area(), cell_size_m, 0.0);
  out.for_each([&](geo::CellIndex c, double& v) {
    v = world.snr_db(geo::Vec3{out.center_of(c), altitude_m}, ue);
  });
  return out;
}

GroundTruth compute_ground_truth(const World& world, double altitude_m, double cell_size_m,
                                 rem::PlacementObjective objective) {
  expects(!world.ue_positions().empty(), "compute_ground_truth: no UEs deployed");
  GroundTruth truth;
  truth.altitude_m = altitude_m;
  truth.per_ue_rems.reserve(world.ue_positions().size());
  for (const geo::Vec3& ue : world.ue_positions())
    truth.per_ue_rems.push_back(ground_truth_rem(world, ue, altitude_m, cell_size_m));
  truth.optimal = rem::choose_placement_feasible(geo::views_of(truth.per_ue_rems),
                                                 world.terrain(), altitude_m, objective);

  // Mean-throughput map over the same grid (the paper's Fig. 1 metric).
  geo::Grid2D<double> tput(world.area(), cell_size_m, 0.0);
  tput.for_each([&](geo::CellIndex c, double& v) {
    double sum = 0.0;
    for (const geo::Grid2D<double>& snr : truth.per_ue_rems)
      sum += lte::throughput_bps(snr.at(c), world.carrier());
    v = sum / static_cast<double>(truth.per_ue_rems.size());
  });
  rem::mask_infeasible_cells(tput, world.terrain(), altitude_m);
  truth.max_mean_throughput_bps = 0.0;
  tput.for_each([&](geo::CellIndex c, const double& v) {
    if (v > truth.max_mean_throughput_bps) {
      truth.max_mean_throughput_bps = v;
      truth.max_mean_position = tput.center_of(c);
    }
  });
  truth.optimal_mean_throughput_bps =
      world.mean_throughput_bps(geo::Vec3{truth.optimal.position, altitude_m});
  return truth;
}

double relative_throughput(const World& world, const GroundTruth& truth, geo::Vec2 position) {
  const double tput =
      world.mean_throughput_bps(geo::Vec3{position, truth.altitude_m});
  // Degenerate worlds where even the optimum serves nothing: any placement
  // is as good as the optimum.
  if (truth.optimal_mean_throughput_bps <= 0.0) return 1.0;
  return tput / truth.optimal_mean_throughput_bps;
}

}  // namespace skyran::sim

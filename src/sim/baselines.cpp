#include "sim/baselines.hpp"

#include <random>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "uav/trajectory.hpp"

namespace skyran::sim {

namespace {

constexpr double kZigzagSpacingM = 40.0;

}  // namespace

SchemeResult run_uniform(const World& world, const UniformConfig& config, std::uint64_t seed) {
  expects(config.budget_m > 0.0, "run_uniform: budget must be positive");
  const geo::Path full = uav::zigzag(world.area().inflated(-5.0), kZigzagSpacingM);
  const geo::Path track = uav::truncate_to_budget(full, config.budget_m);
  const uav::FlightPlan plan = uav::FlightPlan::at_altitude(track, config.altitude_m);

  rem::RemBank rems(world.area(), config.rem_cell_m, config.altitude_m);
  for (const geo::Vec3& ue : world.ue_positions()) rems.add_ue(ue);

  geo::Mt19937_64 rng(seed);
  run_measurement_flight(world, plan, rems, config.measurement, rng);

  rems.estimate_all(config.idw);
  const rem::Placement placement = rem::choose_placement_feasible(
      rems.estimate_views(), world.terrain(), config.altitude_m, config.objective);

  SchemeResult out;
  out.position = placement.position;
  out.altitude_m = config.altitude_m;
  out.flight_length_m = track.length();
  out.rems = std::move(rems);
  return out;
}

SchemeResult run_centroid(std::span<const geo::Vec2> ue_positions, double altitude_m,
                          geo::Rect area) {
  expects(!ue_positions.empty(), "run_centroid: need at least one UE");
  geo::Vec2 centroid{};
  for (geo::Vec2 p : ue_positions) centroid += p;
  centroid = centroid / static_cast<double>(ue_positions.size());

  SchemeResult out;
  out.position = area.clamp(centroid);
  out.altitude_m = altitude_m;
  out.flight_length_m = 0.0;
  return out;
}

SchemeResult run_random(const World& world, double altitude_m, std::uint64_t seed) {
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(world.area().min.x, world.area().max.x);
  std::uniform_real_distribution<double> uy(world.area().min.y, world.area().max.y);
  SchemeResult out;
  out.position = {ux(rng), uy(rng)};
  out.altitude_m = altitude_m;
  return out;
}

}  // namespace skyran::sim

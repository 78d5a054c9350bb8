// Ablations of the measurement-trajectory planner's design choices (Step 6):
//   (a) gradient-guided tours vs random waypoint tours vs a zigzag sweep at
//       equal budget (the value of spatial filtering);
//   (b) the K range of the cluster sweep;
//   (c) information gain on/off across two successive tours (the value of
//       steering away from already-flown trajectories).

#include "common.hpp"
#include "geo/mt19937.hpp"
#include "rem/planner.hpp"

namespace {

using namespace skyran;

constexpr double kAltitude = 60.0;
constexpr double kBudget = 500.0;

rem::RemBank fresh_rems(const sim::World& world) {
  const rf::FsplChannel fspl(world.channel().frequency_hz());
  rem::RemBank rems(world.area(), bench::rem_cell(terrain::TerrainKind::kCampus), kAltitude);
  for (const geo::Vec3& ue : world.ue_positions())
    rems.seed_from_model(rems.add_ue(ue), fspl, world.budget());
  return rems;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_seeds = bench::seeds_arg(argc, argv, 4);

  // ---- (a) trajectory family ---------------------------------------------
  sim::print_banner(std::cout,
                    "Ablation (a): trajectory family at a 500 m budget (campus, 6 UEs)");
  sim::Table fam({"trajectory", "median REM error (dB)"});
  std::vector<double> grad_err, rand_err, zig_err;
  for (int s = 0; s < n_seeds; ++s) {
    sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 800 + s);
    world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 810 + s);
    geo::Mt19937_64 rng(820 + s);

    rem::RemBank rems = fresh_rems(world);
    bench::run_planner_rounds(world, rems, kBudget, kAltitude, 830 + s, rng);
    rems.estimate_all();
    grad_err.push_back(bench::rem_error_db(world, rems));

    rem::RemBank rnd = fresh_rems(world);
    const geo::Path walk = uav::random_walk(world.area().inflated(-10.0),
                                            world.area().center(), kBudget, 60.0, 840 + s);
    sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(walk, kAltitude), rnd, {},
                                rng);
    rnd.estimate_all();
    rand_err.push_back(bench::rem_error_db(world, rnd));

    rem::RemBank zig = fresh_rems(world);
    const geo::Path sweep = uav::truncate_to_budget(
        uav::zigzag(world.area().inflated(-10.0), 40.0), kBudget);
    sim::run_measurement_flight(world, uav::FlightPlan::at_altitude(sweep, kAltitude), zig, {},
                                rng);
    zig.estimate_all();
    zig_err.push_back(bench::rem_error_db(world, zig));
  }
  fam.add_row({"gradient-guided (SkyRAN)", sim::Table::num(geo::median(grad_err), 1)});
  fam.add_row({"random waypoints", sim::Table::num(geo::median(rand_err), 1)});
  fam.add_row({"zigzag sweep", sim::Table::num(geo::median(zig_err), 1)});
  fam.print(std::cout);

  // ---- (b) K range ---------------------------------------------------------
  sim::print_banner(std::cout, "Ablation (b): cluster-count range of the K sweep");
  sim::Table ks({"K range", "median REM error (dB)"});
  for (const auto& [kmin, kmax] : std::vector<std::pair<int, int>>{
           {2, 2}, {4, 4}, {8, 8}, {12, 12}, {4, 12}}) {
    std::vector<double> errs;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 800 + s);
      world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 810 + s);
      geo::Mt19937_64 rng(850 + s);
      rem::RemBank rems = fresh_rems(world);
      std::vector<rem::TrajectoryHistory> histories(rems.ue_count());
      double remaining = kBudget;
      geo::Vec2 start = world.area().center();
      while (remaining > 60.0) {
        rem::PlannerConfig pc;
        pc.k_min = kmin;
        pc.k_max = kmax;
        rems.estimate_all();
        const rem::PlannedTrajectory plan =
            rem::plan_measurement_trajectory(rems, histories, start, remaining, 860 + s, pc);
        if (plan.cost_m < 1.0) break;
        sim::run_measurement_flight(world,
                                    uav::FlightPlan::at_altitude(plan.path, kAltitude), rems,
                                    {}, rng);
        remaining -= plan.cost_m;
        start = plan.path.points().back();
        for (auto& h : histories) h.push_back(plan.path);
      }
      rems.estimate_all();
      errs.push_back(bench::rem_error_db(world, rems));
    }
    ks.add_row({std::to_string(kmin) + ".." + std::to_string(kmax),
                sim::Table::num(geo::median(errs), 1)});
  }
  ks.print(std::cout);

  // ---- (c) information gain on/off ----------------------------------------
  sim::print_banner(std::cout,
                    "Ablation (c): info-gain steering across two successive 300 m tours");
  sim::Table ig({"variant", "2nd-tour overlap with 1st (mean distance, m)",
                 "median REM error after both (dB)"});
  for (const bool use_history : {true, false}) {
    std::vector<double> dists, errs;
    for (int s = 0; s < n_seeds; ++s) {
      sim::World world = bench::make_world(terrain::TerrainKind::kCampus, 800 + s);
      world.ue_positions() = mobility::deploy_mixed_visibility(world.terrain(), 6, 810 + s);
      geo::Mt19937_64 rng(870 + s);
      rem::RemBank rems = fresh_rems(world);
      std::vector<rem::TrajectoryHistory> histories(rems.ue_count());
      geo::Path first;
      geo::Vec2 start = world.area().center();
      for (int round = 0; round < 2; ++round) {
        rems.estimate_all();
        const rem::PlannedTrajectory plan =
            rem::plan_measurement_trajectory(rems, histories, start, 300.0, 880 + s + round);
        sim::run_measurement_flight(world,
                                    uav::FlightPlan::at_altitude(plan.path, kAltitude), rems,
                                    {}, rng);
        start = plan.path.points().back();
        if (round == 0) {
          first = plan.path;
          if (use_history)
            for (auto& h : histories) h.push_back(plan.path);
        } else {
          dists.push_back(plan.path.mean_distance_to(first, 8.0));
        }
      }
      rems.estimate_all();
      errs.push_back(bench::rem_error_db(world, rems));
    }
    ig.add_row({use_history ? "with info gain" : "history ignored",
                sim::Table::num(geo::median(dists), 1), sim::Table::num(geo::median(errs), 1)});
  }
  ig.print(std::cout);
  std::cout << "  expectation: info gain pushes the 2nd tour away from the 1st and lowers "
               "error\n";
  return 0;
}

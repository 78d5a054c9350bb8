// UE mobility models: scripted waypoint routes at pedestrian speed
// ("scripted to closely mimic human mobility", Fig. 12), and the scale-up
// study's per-epoch random relocation of a fraction of UEs (Sec 5.2). The
// testbed's static UEs (Sec 4.2) need no model: their positions never change.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/mt19937.hpp"
#include "geo/path.hpp"
#include "geo/vec.hpp"
#include "terrain/terrain.hpp"

namespace skyran::mobility {

/// A subset of UEs walk scripted waypoint routes at pedestrian speed; the
/// rest stay put. Routes loop (ping-pong) when exhausted.
class RouteMobility {
 public:
  struct Route {
    std::size_t ue_index = 0;
    geo::Path waypoints;       ///< ground track to walk
    double speed_mps = 1.4;    ///< typical walking speed
    bool loop = true;          ///< ping-pong forever; false = stop at the end
  };

  /// `t` supplies ground heights; `initial` the starting positions.
  RouteMobility(const terrain::Terrain& t, std::vector<geo::Vec3> initial,
                std::vector<Route> routes);

  /// Current UE positions (z on the ground).
  const std::vector<geo::Vec3>& positions() const { return positions_; }

  /// Advance simulated time by `dt_s` seconds.
  void advance(double dt_s);

 private:
  const terrain::Terrain& terrain_;
  std::vector<geo::Vec3> positions_;
  std::vector<Route> routes_;
  std::vector<double> progress_m_;  ///< arc length walked per route
};

/// Scale-up mobility: each call to `relocate_epoch` teleports a random
/// fraction of UEs to fresh walkable positions (models inter-epoch churn).
class EpochRelocateMobility {
 public:
  EpochRelocateMobility(const terrain::Terrain& t, std::vector<geo::Vec3> initial,
                        double move_fraction, std::uint64_t seed);

  /// Current UE positions (z on the ground).
  const std::vector<geo::Vec3>& positions() const { return positions_; }

  /// Relocate `move_fraction` of the UEs; returns the indices that moved.
  std::vector<std::size_t> relocate_epoch();

 private:
  const terrain::Terrain& terrain_;
  std::vector<geo::Vec3> positions_;
  double move_fraction_;
  geo::Mt19937_64 rng_;
};

/// Build walking routes for the first `n_mobile` UEs, each a random walkable
/// track of roughly `route_length_m`. `loop` selects ping-pong vs walk-once.
std::vector<RouteMobility::Route> make_random_routes(const terrain::Terrain& t,
                                                     const std::vector<geo::Vec3>& initial,
                                                     std::size_t n_mobile, double route_length_m,
                                                     std::uint64_t seed, bool loop = true);

}  // namespace skyran::mobility

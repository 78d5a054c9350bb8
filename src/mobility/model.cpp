#include "mobility/model.hpp"

#include <cmath>
#include <random>

#include "geo/contract.hpp"
#include "mobility/deployment.hpp"
#include "uav/trajectory.hpp"

namespace skyran::mobility {

RouteMobility::RouteMobility(const terrain::Terrain& t, std::vector<geo::Vec3> initial,
                             std::vector<Route> routes)
    : terrain_(t), positions_(std::move(initial)), routes_(std::move(routes)) {
  for (const Route& r : routes_) {
    expects(r.ue_index < positions_.size(), "RouteMobility: route for unknown UE");
    expects(r.waypoints.size() >= 2, "RouteMobility: route needs at least two waypoints");
    expects(r.speed_mps > 0.0, "RouteMobility: speed must be positive");
  }
  progress_m_.assign(routes_.size(), 0.0);
}

void RouteMobility::advance(double dt_s) {
  expects(dt_s >= 0.0, "RouteMobility::advance: dt must be >= 0");
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const Route& r = routes_[i];
    const double len = r.waypoints.length();
    if (len <= 0.0) continue;
    progress_m_[i] += r.speed_mps * dt_s;
    double s;
    if (r.loop) {
      // Ping-pong along the route: fold progress into [0, 2*len).
      s = std::fmod(progress_m_[i], 2.0 * len);
      if (s > len) s = 2.0 * len - s;
    } else {
      s = std::min(progress_m_[i], len);  // walk there once and stay
    }
    const geo::Vec2 p = r.waypoints.point_at(s);
    positions_[r.ue_index] = geo::Vec3{p, terrain_.ground_height(p) + 1.5};
  }
}

EpochRelocateMobility::EpochRelocateMobility(const terrain::Terrain& t,
                                             std::vector<geo::Vec3> initial,
                                             double move_fraction, std::uint64_t seed)
    : terrain_(t), positions_(std::move(initial)), move_fraction_(move_fraction), rng_(seed) {
  expects(move_fraction >= 0.0 && move_fraction <= 1.0,
          "EpochRelocateMobility: fraction must be in [0,1]");
}

std::vector<std::size_t> EpochRelocateMobility::relocate_epoch() {
  const auto n_move = static_cast<std::size_t>(
      std::round(move_fraction_ * static_cast<double>(positions_.size())));
  // Choose which UEs move by partial Fisher-Yates.
  std::vector<std::size_t> order(positions_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i < n_move && i + 1 < order.size(); ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, order.size() - 1);
    std::swap(order[i], order[pick(rng_)]);
  }
  std::vector<std::size_t> moved(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(n_move));
  for (std::size_t idx : moved)
    positions_[idx] = random_walkable_position(terrain_, rng_());
  return moved;
}

std::vector<RouteMobility::Route> make_random_routes(const terrain::Terrain& t,
                                                     const std::vector<geo::Vec3>& initial,
                                                     std::size_t n_mobile, double route_length_m,
                                                     std::uint64_t seed, bool loop) {
  expects(n_mobile <= initial.size(), "make_random_routes: more routes than UEs");
  expects(route_length_m > 0.0, "make_random_routes: route length must be positive");
  std::vector<RouteMobility::Route> routes;
  routes.reserve(n_mobile);
  for (std::size_t i = 0; i < n_mobile; ++i) {
    RouteMobility::Route r;
    r.ue_index = i;
    r.waypoints = uav::random_walk(t.area().inflated(-10.0),
                                   t.area().inflated(-10.0).clamp(initial[i].xy()),
                                   route_length_m, 25.0, seed + i * 131ULL);
    r.loop = loop;
    routes.push_back(std::move(r));
  }
  return routes;
}

}  // namespace skyran::mobility

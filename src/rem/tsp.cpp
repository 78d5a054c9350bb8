#include "rem/tsp.hpp"

#include <algorithm>
#include <limits>

#include "geo/contract.hpp"
#include "obs/obs.hpp"

namespace skyran::rem {

geo::Path plan_tour(geo::Vec2 start, std::vector<geo::Vec2> nodes) {
  if (nodes.empty()) return geo::Path({start});

  // Nearest-neighbor construction.
  std::vector<geo::Vec2> order;
  order.reserve(nodes.size());
  geo::Vec2 cur = start;
  std::vector<bool> used(nodes.size(), false);
  for (std::size_t step = 0; step < nodes.size(); ++step) {
    int best = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (used[i]) continue;
      const double d = cur.dist(nodes[i]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(i);
      }
    }
    used[static_cast<std::size_t>(best)] = true;
    order.push_back(nodes[static_cast<std::size_t>(best)]);
    cur = order.back();
  }

  // 2-opt on the open path: reversing order[i..j] changes only the edges
  // into i and out of j.
  auto point = [&](int idx) -> geo::Vec2 { return idx < 0 ? start : order[static_cast<std::size_t>(idx)]; };
  const int n = static_cast<int>(order.size());
  bool improved = true;
  int rounds = 0;
  while (improved && rounds < 40) {
    improved = false;
    ++rounds;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const double before = point(i - 1).dist(point(i)) +
                              (j + 1 < n ? point(j).dist(point(j + 1)) : 0.0);
        const double after = point(i - 1).dist(point(j)) +
                             (j + 1 < n ? point(i).dist(point(j + 1)) : 0.0);
        if (after + 1e-9 < before) {
          std::reverse(order.begin() + i, order.begin() + j + 1);
          improved = true;
        }
      }
    }
  }

  SKYRAN_COUNTER_INC("rem.tsp.tours");
  SKYRAN_HISTOGRAM_OBSERVE("rem.tsp.two_opt_rounds", rounds);
  SKYRAN_HISTOGRAM_OBSERVE("rem.tsp.nodes", order.size());

  std::vector<geo::Vec2> pts;
  pts.reserve(order.size() + 1);
  pts.push_back(start);
  pts.insert(pts.end(), order.begin(), order.end());
  return geo::Path(std::move(pts));
}

}  // namespace skyran::rem

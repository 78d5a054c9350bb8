#include "rem/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"

namespace skyran::rem {

namespace {

// SoA mirror of an AoS Vec2 sequence for the kernels-layer batch primitives.
struct SoA2 {
  std::vector<double> x;
  std::vector<double> y;

  explicit SoA2(std::size_t n) : x(n), y(n) {}

  void set(std::size_t i, geo::Vec2 p) {
    x[i] = p.x;
    y[i] = p.y;
  }
};

}  // namespace

KMeansResult kmeans(const std::vector<WeightedPoint>& points, int k, std::uint64_t seed,
                    int max_iterations) {
  expects(!points.empty(), "kmeans: empty input");
  expects(k >= 1, "kmeans: k must be >= 1");
  k = std::min<int>(k, static_cast<int>(points.size()));

  geo::Mt19937_64 rng(seed);

  // Point coordinates in SoA form, built once: the seeding distance sweep
  // and the assignment sweep both run through the kernels layer.
  SoA2 pts(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) pts.set(i, points[i].position);

  // k-means++ seeding: first center weighted-uniform, then proportional to
  // weighted squared distance from the chosen set.
  std::vector<geo::Vec2> centers;
  centers.reserve(static_cast<std::size_t>(k));
  {
    std::vector<double> cdf(points.size());
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      total += std::max(points[i].weight, 1e-12);
      cdf[i] = total;
    }
    std::uniform_real_distribution<double> pick(0.0, total);
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), pick(rng));
    centers.push_back(points[static_cast<std::size_t>(it - cdf.begin())].position);
  }
  std::vector<double> best_d2(points.size());
  SoA2 ctr(static_cast<std::size_t>(k));
  while (static_cast<int>(centers.size()) < k) {
    for (std::size_t c = 0; c < centers.size(); ++c) ctr.set(c, centers[c]);
    kernels::min_dist2(pts.x.data(), pts.y.data(), points.size(), ctr.x.data(), ctr.y.data(),
                       centers.size(), best_d2.data());
    std::vector<double> cdf(points.size());
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      total += std::max(points[i].weight, 1e-12) * best_d2[i];
      cdf[i] = total;
    }
    if (total <= 0.0) {
      // All points coincide with existing centers; duplicate one.
      centers.push_back(points.front().position);
      continue;
    }
    std::uniform_real_distribution<double> pick(0.0, total);
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), pick(rng));
    centers.push_back(points[static_cast<std::size_t>(it - cdf.begin())].position);
  }

  // Per-centroid accumulator of one chunk of the update sweep. Partials are
  // combined in chunk order (chunk boundaries depend only on the point
  // count), so the centroids are bit-for-bit independent of thread count.
  struct CentroidSums {
    std::vector<geo::Vec2> sums;
    std::vector<double> weights;
  };

  KMeansResult result;
  result.assignment.assign(points.size(), 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    // Assignment sweep: each chunk hands its slice of the SoA arrays to the
    // kernels-layer argmin (EXACT at every SIMD level: centers scanned in
    // index order with strict-less update, so ties keep the lowest index).
    // `changed` is an OR over chunks, which is order-insensitive. Reduced as
    // int (0/1) because parallel_reduce forbids bool: vector<bool> partials
    // would share words across chunks and race.
    for (std::size_t c = 0; c < centers.size(); ++c) ctr.set(c, centers[c]);
    const bool changed =
        core::parallel_reduce(
            points.size(), 0, 0,
            [&](std::size_t begin, std::size_t end) {
              return kernels::kmeans_assign(pts.x.data() + begin, pts.y.data() + begin,
                                            end - begin, ctr.x.data(), ctr.y.data(),
                                            centers.size(), result.assignment.data() + begin);
            },
            [](int a, int b) { return a | b; }) != 0;

    // Update sweep: recompute weighted centroids from per-chunk partials.
    CentroidSums identity{std::vector<geo::Vec2>(centers.size()),
                          std::vector<double>(centers.size(), 0.0)};
    const CentroidSums acc = core::parallel_reduce(
        points.size(), 0, identity,
        [&](std::size_t begin, std::size_t end) {
          CentroidSums part{std::vector<geo::Vec2>(centers.size()),
                            std::vector<double>(centers.size(), 0.0)};
          for (std::size_t i = begin; i < end; ++i) {
            const auto a = static_cast<std::size_t>(result.assignment[i]);
            part.sums[a] += points[i].position * points[i].weight;
            part.weights[a] += points[i].weight;
          }
          return part;
        },
        [](CentroidSums a, const CentroidSums& b) {
          for (std::size_t c = 0; c < a.sums.size(); ++c) {
            a.sums[c] += b.sums[c];
            a.weights[c] += b.weights[c];
          }
          return a;
        });
    for (std::size_t c = 0; c < centers.size(); ++c)
      if (acc.weights[c] > 0.0) centers[c] = acc.sums[c] / acc.weights[c];
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;
  }

  result.inertia = core::parallel_reduce(
      points.size(), 0, 0.0,
      [&](std::size_t begin, std::size_t end) {
        double part = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto a = static_cast<std::size_t>(result.assignment[i]);
          part += points[i].weight * (points[i].position - centers[a]).norm2();
        }
        return part;
      },
      [](double a, double b) { return a + b; });
  result.centroids = std::move(centers);
  SKYRAN_COUNTER_INC("rem.kmeans.runs");
  SKYRAN_HISTOGRAM_OBSERVE("rem.kmeans.iterations", result.iterations);
  SKYRAN_HISTOGRAM_OBSERVE("rem.kmeans.points", points.size());
  return result;
}

}  // namespace skyran::rem

#include "localization/multilateration.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/stats.hpp"
#include "obs/obs.hpp"

namespace skyran::localization {

namespace {

constexpr int kMaxIterations = 60;      ///< Gauss-Newton iterations per start
constexpr double kConvergenceM = 1e-4;  ///< stop when the update step is below this
constexpr double kHuberDeltaM = 8.0;    ///< residuals beyond this are down-weighted
constexpr int kStartGrid = 15;          ///< start candidates: kStartGrid^2 over the area
constexpr std::size_t kStarts = 6;      ///< best-scoring candidates fitted
constexpr double kOffsetMinM = -30.0;   ///< shared-offset scan range and step
constexpr double kOffsetMaxM = 150.0;
constexpr double kOffsetStepM = 1.0;
/// Bench-calibration prior on the processing-delay offset. The payload's
/// ToF processing delay is a constant of the hardware/software chain that is
/// calibrated once on the ground; in flight it may drift, so the scan treats
/// the calibration as a Gaussian prior that the SRS data refines. Without
/// it, a short flight aperture leaves the offset unidentifiable (wavefront
/// curvature over a 20 m aperture is ~1 m at typical ranges, below the ToF
/// noise).
constexpr double kOffsetPriorM = 40.0;
constexpr double kOffsetPriorSigmaM = 12.0;

double huber_weight(double r, double delta) {
  const double ar = std::abs(r);
  return ar <= delta ? 1.0 : delta / ar;
}

double rms_residual(std::span<const GpsTofTuple> tuples, geo::Vec2 u, double b, double ue_z) {
  double sq = 0.0;
  for (const GpsTofTuple& t : tuples) {
    const double r = t.uav_position.dist(geo::Vec3{u, ue_z}) + b - t.range_m;
    sq += r * r;
  }
  return std::sqrt(sq / static_cast<double>(tuples.size()));
}

/// Robust per-UE cost: median absolute residual (insensitive to NLOS
/// outlier tuples).
double median_abs_residual(std::span<const GpsTofTuple> tuples, geo::Vec2 u, double b,
                           double ue_z) {
  std::vector<double> abs_r;
  abs_r.reserve(tuples.size());
  for (const GpsTofTuple& t : tuples)
    abs_r.push_back(std::abs(t.uav_position.dist(geo::Vec3{u, ue_z}) + b - t.range_m));
  return geo::median(abs_r);
}

using Mat2 = std::array<std::array<double, 2>, 2>;

/// Solve the 2 x 2 system A x = b by Gaussian elimination with partial
/// pivoting. Returns false when singular.
bool solve_2x2(Mat2 a, std::array<double, 2> b, std::array<double, 2>& x) {
  for (int col = 0; col < 2; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 2; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (int r = col + 1; r < 2; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < 2; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = 1; r >= 0; --r) {
    double s = b[r];
    for (int c = r + 1; c < 2; ++c) s -= a[r][c] * x[c];
    x[r] = s / a[r][r];
  }
  return true;
}

/// Gauss-Newton over (x, y) with Huber weights from one start; b stays fixed.
MultilaterationResult fit_from(std::span<const GpsTofTuple> tuples, geo::Vec2 u, double b,
                               geo::Rect area, double ue_z) {
  MultilaterationResult out;
  for (int it = 0; it < kMaxIterations; ++it) {
    Mat2 jtj{};
    std::array<double, 2> jtr{};
    for (const GpsTofTuple& t : tuples) {
      const double dist = std::max(1e-6, t.uav_position.dist(geo::Vec3{u, ue_z}));
      const double r = dist + b - t.range_m;
      const double w = huber_weight(r, kHuberDeltaM);
      const std::array<double, 2> j{(u.x - t.uav_position.x) / dist,
                                    (u.y - t.uav_position.y) / dist};
      for (int a = 0; a < 2; ++a) {
        for (int c = 0; c < 2; ++c) jtj[a][c] += w * j[a] * j[c];
        jtr[a] += w * j[a] * r;
      }
    }
    for (int a = 0; a < 2; ++a) jtj[a][a] += 1e-6;  // Levenberg damping
    std::array<double, 2> step{};
    if (!solve_2x2(jtj, jtr, step)) break;
    u.x -= step[0];
    u.y -= step[1];
    u = area.clamp(u);
    out.iterations = it + 1;
    if (std::sqrt(step[0] * step[0] + step[1] * step[1]) < kConvergenceM) break;
  }
  out.position = u;
  out.offset_m = b;
  out.rms_residual_m = rms_residual(tuples, u, b, ue_z);
  return out;
}

/// The kStarts best of a kStartGrid^2 grid of candidate starts over the
/// search area, scored by robust cost.
std::vector<geo::Vec2> grid_starts(std::span<const GpsTofTuple> tuples, geo::Rect area,
                                   double b, double ue_z) {
  struct Scored {
    geo::Vec2 u;
    double cost;
  };
  std::vector<Scored> scored;
  scored.reserve(kStartGrid * kStartGrid);
  for (int gy = 0; gy < kStartGrid; ++gy) {
    for (int gx = 0; gx < kStartGrid; ++gx) {
      const geo::Vec2 u{area.min.x + (gx + 0.5) / kStartGrid * area.width(),
                        area.min.y + (gy + 0.5) / kStartGrid * area.height()};
      scored.push_back({u, median_abs_residual(tuples, u, b, ue_z)});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) { return x.cost < y.cost; });
  std::vector<geo::Vec2> out;
  for (std::size_t i = 0; i < kStarts; ++i) out.push_back(scored[i].u);
  return out;
}

}  // namespace

MultilaterationResult multilaterate_fixed_offset(std::span<const GpsTofTuple> tuples,
                                                 geo::Rect search_area, double ue_altitude_m,
                                                 double offset_m) {
  expects(tuples.size() >= 4, "multilaterate_fixed_offset: need at least 4 GPS-ToF tuples");
  MultilaterationResult best;
  bool have_best = false;
  double best_cost = 0.0;
  for (const geo::Vec2 u : grid_starts(tuples, search_area, offset_m, ue_altitude_m)) {
    const MultilaterationResult candidate =
        fit_from(tuples, u, offset_m, search_area, ue_altitude_m);
    const double cost =
        median_abs_residual(tuples, candidate.position, candidate.offset_m, ue_altitude_m);
    if (!have_best || cost < best_cost) {
      best = candidate;
      best_cost = cost;
      have_best = true;
    }
  }
  return best;
}

JointMultilaterationResult multilaterate_joint(std::span<const GpsTofSeries> per_ue_tuples,
                                               geo::Rect search_area,
                                               std::span<const double> ue_altitudes_m) {
  expects(!per_ue_tuples.empty(), "multilaterate_joint: need at least one UE");
  expects(per_ue_tuples.size() == ue_altitudes_m.size(),
          "multilaterate_joint: one altitude per UE required");
  SKYRAN_TRACE_SPAN("loc.mlat.joint");

  // Per (UE, grid candidate): robust statistics of excess = range - distance.
  // For any shared offset b, the candidate's misfit is approximately
  // sqrt(spread^2 + (b - median_excess)^2); scanning b over these cached
  // statistics is O(#UE x #grid) per step instead of a full re-fit.
  constexpr int kGrid = 17;
  struct CandStat {
    double median_excess = 0.0;
    double mad = 0.0;  // median absolute deviation around the median
  };
  constexpr std::size_t kCandidates = kGrid * kGrid;
  std::vector<std::size_t> usable_ues;
  for (std::size_t u = 0; u < per_ue_tuples.size(); ++u)
    if (per_ue_tuples[u].size() >= 4) usable_ues.push_back(u);
  const std::size_t n_usable = usable_ues.size();
  expects(n_usable > 0, "multilaterate_joint: no UE has enough tuples");

  // Every (usable UE, candidate) statistic is independent: one flat loop
  // over all of them, with one scratch buffer per chunk. stats[j * kCandidates
  // + c] belongs to usable UE j and candidate c.
  std::vector<CandStat> stats(n_usable * kCandidates);
  core::parallel_for_chunks(
      n_usable * kCandidates, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<double> scratch;
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t u = usable_ues[i / kCandidates];
          const std::size_t cand = i % kCandidates;
          const int gy = static_cast<int>(cand) / kGrid;
          const int gx = static_cast<int>(cand) % kGrid;
          const geo::Vec2 p{search_area.min.x + (gx + 0.5) / kGrid * search_area.width(),
                            search_area.min.y + (gy + 0.5) / kGrid * search_area.height()};
          scratch.clear();
          for (const GpsTofTuple& t : per_ue_tuples[u])
            scratch.push_back(t.range_m - t.uav_position.dist(geo::Vec3{p, ue_altitudes_m[u]}));
          // Selection permutes scratch; the MAD pass is order-free.
          const double med = geo::percentile_inplace(scratch, 0.5);
          for (double& v : scratch) v = std::abs(v - med);
          stats[i] = {med, geo::percentile_inplace(scratch, 0.5)};
        }
      });

  const auto cost_for_offset = [&](double b) {
    double total = 0.0;
    for (std::size_t j = 0; j < n_usable; ++j) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = j * kCandidates; c < (j + 1) * kCandidates; ++c) {
        const CandStat& s = stats[c];
        const double miss = b - s.median_excess;
        best = std::min(best, std::sqrt(s.mad * s.mad + miss * miss));
      }
      total += best;
    }
    const double z = (b - kOffsetPriorM) / kOffsetPriorSigmaM;
    return total + static_cast<double>(n_usable) * 0.5 * z * z;
  };

  double best_b = kOffsetMinM;
  double best_cost = cost_for_offset(best_b);
  for (double b = kOffsetMinM; b <= kOffsetMaxM; b += kOffsetStepM) {
    const double c = cost_for_offset(b);
    if (c < best_cost) {
      best_cost = c;
      best_b = b;
    }
  }

  // Final per-UE fits at the chosen shared offset, one UE per pool index;
  // unusable UEs keep the default result.
  JointMultilaterationResult out;
  out.shared_offset_m = best_b;
  out.per_ue.resize(per_ue_tuples.size());
  core::parallel_for(
      n_usable,
      [&](std::size_t i) {
        const std::size_t u = usable_ues[i];
        out.per_ue[u] = multilaterate_fixed_offset(per_ue_tuples[u], search_area,
                                                   ue_altitudes_m[u], best_b);
      },
      1);
  for (const std::size_t u : usable_ues)
    SKYRAN_HISTOGRAM_OBSERVE("loc.mlat.iterations", out.per_ue[u].iterations);
  return out;
}

}  // namespace skyran::localization

#include "rem/bank.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/thread_pool.hpp"
#include "geo/contract.hpp"
#include "geo/stats.hpp"
#include "obs/obs.hpp"

namespace skyran::rem {

RemBank::RemBank(geo::Rect area, double cell_size, double altitude_m)
    : area_(area), cell_size_(cell_size), altitude_m_(altitude_m) {
  expects(cell_size > 0.0, "RemBank: cell size must be positive");
  expects(area.width() > 0.0 && area.height() > 0.0, "RemBank: area must be non-empty");
  expects(altitude_m > 0.0, "RemBank: altitude must be positive");
  // Same layout formula as Grid2D so views line up cell-for-cell with
  // standalone grids over the same area.
  nx_ = std::max(static_cast<int>(std::ceil(area.width() / cell_size - 1e-9)), 1);
  ny_ = std::max(static_cast<int>(std::ceil(area.height() / cell_size - 1e-9)), 1);
  cells_ = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
}

std::size_t RemBank::add_ue(geo::Vec3 ue_position) {
  const std::size_t ue = ue_pos_.size();
  ue_pos_.push_back(ue_position);
  source_.push_back(BackgroundSource::kNone);
  measured_count_.push_back(0);
  full_pending_.push_back(1);
  fresh_cells_.emplace_back();
  sums_.resize(sums_.size() + cells_, 0.0);
  counts_.resize(counts_.size() + cells_, 0);
  background_.resize(background_.size() + cells_, 0.0);
  pending_.resize(pending_.size() + cells_, 0);
  dirty_any_ = true;
  return ue;
}

const geo::Vec3& RemBank::ue_position(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::ue_position: UE out of range");
  return ue_pos_[ue];
}

geo::CellIndex RemBank::cell_of(geo::Vec2 p) const {
  expects(area_.contains(p), "RemBank::cell_of: point outside area");
  int ix = static_cast<int>((p.x - area_.min.x) / cell_size_);
  int iy = static_cast<int>((p.y - area_.min.y) / cell_size_);
  ix = std::min(ix, nx_ - 1);
  iy = std::min(iy, ny_ - 1);
  return {ix, iy};
}

geo::Vec2 RemBank::center_of(geo::CellIndex c) const {
  return {area_.min.x + (c.ix + 0.5) * cell_size_,
          area_.min.y + (c.iy + 0.5) * cell_size_};
}

void RemBank::add_measurement(std::size_t ue, geo::Vec2 at, double snr_db) {
  expects(ue < ue_count(), "RemBank::add_measurement: UE out of range");
  expects(area_.contains(at), "RemBank::add_measurement: position outside area");
  const std::size_t f = flat(ue, cell_of(at));
  if (counts_[f] == 0) ++measured_count_[ue];
  sums_[f] += snr_db;
  counts_[f] += 1;
  // Any deposit changes the cell's mean, so downstream interpolations that
  // consulted this sample are stale too; the pending flag dedups the list.
  if (!pending_[f]) {
    pending_[f] = 1;
    fresh_cells_[ue].push_back(f - ue * cells_);
  }
  dirty_any_ = true;
}

void RemBank::seed_from_model(std::size_t ue, const rf::ChannelModel& model,
                              const rf::LinkBudget& budget) {
  expects(ue < ue_count(), "RemBank::seed_from_model: UE out of range");
  double* bg = background_.data() + ue * cells_;
  // Serial row-major sweep: each row of candidate UAV positions goes through
  // the channel's batched row evaluation, then the link budget per cell.
  std::vector<geo::Vec3> row(static_cast<std::size_t>(nx_));
  for (int iy = 0; iy < ny_; ++iy) {
    for (int ix = 0; ix < nx_; ++ix)
      row[static_cast<std::size_t>(ix)] = geo::Vec3{center_of({ix, iy}), altitude_m_};
    double* out = bg + static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx_);
    model.path_loss_db_row(row.data(), row.size(), ue_pos_[ue], out);
    for (int ix = 0; ix < nx_; ++ix)
      out[static_cast<std::size_t>(ix)] = budget.snr_db(out[static_cast<std::size_t>(ix)]);
  }
  source_[ue] = BackgroundSource::kModel;
  full_pending_[ue] = 1;
  dirty_any_ = true;
}

void RemBank::seed_from(std::size_t ue, const RemBank& prior, const IdwParams& params) {
  expects(ue < ue_count(), "RemBank::seed_from: UE out of range");
  expects(prior.ue_count() == 1, "RemBank::seed_from: prior must be a one-UE bank");
  expects(prior.nx_ == nx_ && prior.ny_ == ny_,
          "RemBank::seed_from: geometry mismatch with prior REM");
  RemBank est = prior;
  est.estimate_all(params);
  std::copy(est.estimate_.begin(), est.estimate_.end(), background_.begin() + ue * cells_);
  // A prior seeded purely from a model carries no measurement information.
  source_[ue] = prior.measured_count_[0] > 0 || prior.source_[0] == BackgroundSource::kPrior
                    ? BackgroundSource::kPrior
                    : prior.source_[0];
  full_pending_[ue] = 1;
  dirty_any_ = true;
}

std::size_t RemBank::measured_cells(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::measured_cells: UE out of range");
  return measured_count_[ue];
}

RemBank::BackgroundSource RemBank::background_source(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::background_source: UE out of range");
  return source_[ue];
}

int RemBank::measurement_count(std::size_t ue, geo::CellIndex c) const {
  expects(ue < ue_count(), "RemBank::measurement_count: UE out of range");
  expects(c.ix >= 0 && c.ix < nx_ && c.iy >= 0 && c.iy < ny_,
          "RemBank::measurement_count: cell out of bounds");
  return counts_[flat(ue, c)];
}

std::optional<double> RemBank::measured_snr(std::size_t ue, geo::CellIndex c) const {
  const int n = measurement_count(ue, c);
  if (n == 0) return std::nullopt;
  return sums_[flat(ue, c)] / n;
}

void RemBank::restore_measurement(std::size_t ue, geo::CellIndex c, double snr_sum_db,
                                  int count) {
  expects(count >= 1, "RemBank::restore_measurement: count must be >= 1");
  if (measurement_count(ue, c) == 0) ++measured_count_[ue];
  sums_[flat(ue, c)] = snr_sum_db;
  counts_[flat(ue, c)] = count;
  full_pending_[ue] = 1;
  dirty_any_ = true;
}

void RemBank::restore_background(std::size_t ue, std::span<const double> background,
                                 BackgroundSource source) {
  expects(ue < ue_count(), "RemBank::restore_background: UE out of range");
  expects(background.size() == cells_, "RemBank::restore_background: geometry mismatch");
  std::copy(background.begin(), background.end(), background_.begin() + ue * cells_);
  source_[ue] = source;
  full_pending_[ue] = 1;
  dirty_any_ = true;
}

void RemBank::estimate_all(const IdwParams& params) {
  SKYRAN_TRACE_SPAN("rem.bank.estimate_all");
  const std::size_t n_ue = ue_count();
  // The cached slab is parameter-specific: changing IDW parameters changes
  // every interpolated cell, so everything goes stale.
  const bool params_changed =
      !estimated_once_ || params.k_neighbors != last_params_.k_neighbors ||
      params.power != last_params_.power ||
      params.max_radius_m != last_params_.max_radius_m ||
      params.background_blend_m != last_params_.background_blend_m;

  estimate_.resize(n_ue * cells_, 0.0);
  influence_.resize(n_ue * cells_, 0.0);

  // Per-UE interpolation context, built serially. Samples are gathered in
  // flat (row-major ascending) order, so neighbor tie-breaking never
  // depends on which cells were dirty.
  std::vector<std::optional<IdwInterpolator>> idw(n_ue);
  std::vector<std::optional<IdwInterpolator>> fresh(n_ue);
  std::vector<geo::Vec2> fresh_lo(n_ue), fresh_hi(n_ue);
  std::vector<std::uint8_t> ue_full(n_ue, 0);
  std::vector<std::uint8_t> ue_blend(n_ue, 0);
  // Coarse Chebyshev distance (in tiles of kTileCells × kTileCells cells)
  // from every tile to the nearest tile holding a fresh deposit. Two cell
  // centers whose tiles are d >= 1 apart differ by at least (d-1)*kTileCells+1
  // cell indices on one axis, so their distance is at least that many cell
  // sizes: one integer lookup proves most clean cells clean without the
  // exact ring search. Conservative only — never marks an affected cell clean.
  constexpr int kTileCells = 4;
  const int ntx = (nx_ + kTileCells - 1) / kTileCells;
  const int nty = (ny_ + kTileCells - 1) / kTileCells;
  std::vector<std::vector<int>> tile_dist(n_ue);
  for (std::size_t ue = 0; ue < n_ue; ++ue) {
    const double* sums = sums_.data() + ue * cells_;
    const int* counts = counts_.data() + ue * cells_;
    std::vector<IdwSample> samples;
    samples.reserve(measured_count_[ue]);
    for (std::size_t i = 0; i < cells_; ++i) {
      if (counts[i] == 0) continue;
      const geo::CellIndex c{static_cast<int>(i % static_cast<std::size_t>(nx_)),
                             static_cast<int>(i / static_cast<std::size_t>(nx_))};
      samples.push_back({center_of(c), sums[i] / counts[i]});
    }
    idw[ue].emplace(std::move(samples), area_);
    ue_full[ue] = params_changed || full_pending_[ue] ? 1 : 0;
    ue_blend[ue] = source_[ue] == BackgroundSource::kPrior &&
                           params.background_blend_m > 0.0
                       ? 1
                       : 0;
    if (ue_full[ue] || fresh_cells_[ue].empty()) continue;
    // Index of this round's deposits, for the influence-radius dirty test,
    // plus their bounding box as a cheap first-stage reject.
    std::vector<IdwSample> fresh_samples;
    fresh_samples.reserve(fresh_cells_[ue].size());
    geo::Vec2 lo{std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity()};
    geo::Vec2 hi{-std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity()};
    for (std::size_t i : fresh_cells_[ue]) {
      const geo::CellIndex c{static_cast<int>(i % static_cast<std::size_t>(nx_)),
                             static_cast<int>(i / static_cast<std::size_t>(nx_))};
      const geo::Vec2 p = center_of(c);
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
      fresh_samples.push_back({p, 0.0});
    }
    fresh[ue].emplace(std::move(fresh_samples), area_);
    fresh_lo[ue] = lo;
    fresh_hi[ue] = hi;
    // Multi-source 8-neighbor BFS: exact Chebyshev tile distance.
    std::vector<int>& dist = tile_dist[ue];
    dist.assign(static_cast<std::size_t>(ntx) * static_cast<std::size_t>(nty), -1);
    std::vector<int> queue;
    queue.reserve(dist.size());
    for (std::size_t i : fresh_cells_[ue]) {
      const int tx = static_cast<int>(i % static_cast<std::size_t>(nx_)) / kTileCells;
      const int ty = static_cast<int>(i / static_cast<std::size_t>(nx_)) / kTileCells;
      const int t = ty * ntx + tx;
      if (dist[static_cast<std::size_t>(t)] < 0) {
        dist[static_cast<std::size_t>(t)] = 0;
        queue.push_back(t);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int t = queue[head];
      const int tx = t % ntx;
      const int ty = t / ntx;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int qx = tx + dx;
          const int qy = ty + dy;
          if (qx < 0 || qx >= ntx || qy < 0 || qy >= nty) continue;
          const std::size_t q = static_cast<std::size_t>(qy * ntx + qx);
          if (dist[q] < 0) {
            dist[q] = dist[static_cast<std::size_t>(t)] + 1;
            queue.push_back(qy * ntx + qx);
          }
        }
      }
    }
  }

  // One flat sweep over (ue, tile) pairs on the pool — tiles are the same
  // kTileCells × kTileCells blocks the dirty-distance BFS runs on, so the
  // tile-distance lower bound is one lookup per work item instead of one per
  // cell. Each cell is still decided and recomputed independently, so chunk
  // boundaries cannot change results.
  const std::size_t n_tiles = static_cast<std::size_t>(ntx) * static_cast<std::size_t>(nty);
  std::atomic<std::size_t> reestimated_total{0};
  core::parallel_for(n_ue * n_tiles, [&](std::size_t item) {
    const std::size_t ue = item / n_tiles;
    const std::size_t t = item % n_tiles;
    const int tx = static_cast<int>(t % static_cast<std::size_t>(ntx));
    const int ty = static_cast<int>(t / static_cast<std::size_t>(ntx));
    const int x0 = tx * kTileCells;
    const int x1 = std::min(nx_, x0 + kTileCells);
    const int y0 = ty * kTileCells;
    const int y1 = std::min(ny_, y0 + kTileCells);
    const bool full = ue_full[ue] != 0;
    const bool blend = ue_blend[ue] != 0;
    const bool has_bg = source_[ue] != BackgroundSource::kNone;
    const bool has_fresh = fresh[ue].has_value();
    // Hoisted per tile: the Chebyshev lower bound on the distance from any
    // cell of this tile to the nearest fresh deposit.
    const int d = has_fresh ? tile_dist[ue][t] : 0;
    const double tile_lb = d <= 0 ? 0.0 : ((d - 1) * kTileCells + 1) * cell_size_;
    std::size_t tile_reestimated = 0;
    for (int iy = y0; iy < y1; ++iy) {
      const std::size_t base = ue * cells_ +
                               static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx_);
      for (int ix = x0; ix < x1; ++ix) {
        const std::size_t f = base + static_cast<std::size_t>(ix);
        bool dirty = full || pending_[f] != 0;
        if (!dirty && has_fresh && counts_[f] == 0 && influence_[f] > 0.0) {
          const double r = influence_[f];
          if (r >= tile_lb) {
            const geo::Vec2 p = center_of({ix, iy});
            // Bounding-box reject before the exact ring search.
            const double dx = std::max({fresh_lo[ue].x - p.x, 0.0, p.x - fresh_hi[ue].x});
            const double dy = std::max({fresh_lo[ue].y - p.y, 0.0, p.y - fresh_hi[ue].y});
            if (dx * dx + dy * dy <= r * r) dirty = fresh[ue]->any_within(p, r);
          }
        }
        if (!dirty) continue;
        ++tile_reestimated;
        if (counts_[f] > 0) {
          estimate_[f] = sums_[f] / counts_[f];
          influence_[f] = 0.0;  // only a direct deposit can change a mean
          continue;
        }
        const geo::Vec2 p = center_of({ix, iy});
        const IdwInterpolator::InfluenceEstimate inf = idw[ue]->estimate_with_influence(
            p, params.k_neighbors, params.power, params.max_radius_m);
        influence_[f] = inf.influence_m;
        if (inf.estimate && blend) {
          // Temporal aggregation: fresh measurements dominate near the tour,
          // the prior epoch's map dominates far from it.
          const double w = std::exp(-inf.estimate->nearest_m / params.background_blend_m);
          estimate_[f] = w * inf.estimate->value + (1.0 - w) * background_[f];
        } else if (inf.estimate) {
          estimate_[f] = inf.estimate->value;
        } else if (has_bg) {
          estimate_[f] = background_[f];
        } else {
          estimate_[f] = 0.0;
        }
      }
    }
    reestimated_total.fetch_add(tile_reestimated, std::memory_order_relaxed);
  });

  for (std::size_t ue = 0; ue < n_ue; ++ue) {
    for (std::size_t i : fresh_cells_[ue]) pending_[ue * cells_ + i] = 0;
    fresh_cells_[ue].clear();
    full_pending_[ue] = 0;
    // Per-UE fill: one observation per UE map refreshed.
    SKYRAN_HISTOGRAM_OBSERVE(
        "rem.fill.measured_fraction",
        static_cast<double>(measured_count_[ue]) / static_cast<double>(cells_));
  }
  estimated_once_ = true;
  dirty_any_ = false;
  last_params_ = params;

  stats_.cells_total = n_ue * cells_;
  stats_.cells_reestimated = reestimated_total.load(std::memory_order_relaxed);
  stats_.cells_cached = stats_.cells_total - stats_.cells_reestimated;
  SKYRAN_COUNTER_ADD("rem.bank.cells_reestimated", stats_.cells_reestimated);
  SKYRAN_COUNTER_ADD("rem.bank.cells_cached", stats_.cells_cached);
  SKYRAN_GAUGE_SET("rem.bank.dirty_fraction", stats_.dirty_fraction());
}

geo::FieldView<const double> RemBank::estimate(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::estimate: UE out of range");
  expects(estimates_current(), "RemBank::estimate: call estimate_all() first");
  return {estimate_.data() + ue * cells_, area_, cell_size_, nx_, ny_};
}

std::vector<geo::FieldView<const double>> RemBank::estimate_views() const {
  std::vector<geo::FieldView<const double>> out;
  out.reserve(ue_count());
  for (std::size_t ue = 0; ue < ue_count(); ++ue) out.push_back(estimate(ue));
  return out;
}

geo::Grid2D<double> RemBank::estimate_grid(std::size_t ue) const {
  return estimate(ue).to_grid();
}

geo::FieldView<const double> RemBank::background(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::background: UE out of range");
  return {background_.data() + ue * cells_, area_, cell_size_, nx_, ny_};
}

RemBank RemBank::extract(std::size_t ue) const {
  expects(ue < ue_count(), "RemBank::extract: UE out of range");
  RemBank out(area_, cell_size_, altitude_m_);
  out.add_ue(ue_pos_[ue]);
  const std::size_t lo = ue * cells_;
  const std::size_t hi = lo + cells_;
  std::copy(sums_.begin() + lo, sums_.begin() + hi, out.sums_.begin());
  std::copy(counts_.begin() + lo, counts_.begin() + hi, out.counts_.begin());
  std::copy(background_.begin() + lo, background_.begin() + hi, out.background_.begin());
  out.source_[0] = source_[ue];
  out.measured_count_[0] = measured_count_[ue];
  return out;
}

double median_abs_error_db(const geo::Grid2D<double>& estimate,
                           const geo::Grid2D<double>& ground_truth) {
  expects(estimate.same_geometry(ground_truth), "median_abs_error_db: geometry mismatch");
  std::vector<double> errs;
  errs.reserve(estimate.size());
  estimate.for_each([&](geo::CellIndex c, const double& v) {
    errs.push_back(std::abs(v - ground_truth.at(c)));
  });
  return geo::median(errs);
}

}  // namespace skyran::rem

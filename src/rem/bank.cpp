#include "rem/bank.hpp"

#include <algorithm>
#include <cmath>
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
  stale_.push_back(1);
  sums_.resize(sums_.size() + cells_, 0.0);
  counts_.resize(counts_.size() + cells_, 0);
  background_.resize(background_.size() + cells_, 0.0);
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
  stale_[ue] = 1;
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
  stale_[ue] = 1;
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
  stale_[ue] = 1;
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
  stale_[ue] = 1;
}

void RemBank::restore_background(std::size_t ue, std::span<const double> background,
                                 BackgroundSource source) {
  expects(ue < ue_count(), "RemBank::restore_background: UE out of range");
  expects(background.size() == cells_, "RemBank::restore_background: geometry mismatch");
  std::copy(background.begin(), background.end(), background_.begin() + ue * cells_);
  source_[ue] = source;
  stale_[ue] = 1;
}

bool RemBank::estimates_current() const {
  return estimated_once_ && std::none_of(stale_.begin(), stale_.end(),
                                         [](std::uint8_t stale) { return stale != 0; });
}

void RemBank::estimate_all(const IdwParams& params) {
  SKYRAN_TRACE_SPAN("rem.bank.estimate_all");
  validate(params);
  const std::size_t n_ue = ue_count();
  // The cached slab is parameter-specific: changing IDW parameters changes
  // every interpolated cell, so everything goes stale.
  const bool params_changed =
      !estimated_once_ || params.k_neighbors != last_params_.k_neighbors ||
      params.power != last_params_.power ||
      params.max_radius_m != last_params_.max_radius_m ||
      params.background_blend_m != last_params_.background_blend_m;
  if (params_changed) std::fill(stale_.begin(), stale_.end(), 1);

  estimate_.resize(n_ue * cells_, 0.0);

  // Per-stale-UE interpolation context, built serially. Samples are
  // gathered in flat (row-major ascending) order.
  std::vector<std::size_t> stale_ues;
  std::vector<std::optional<IdwInterpolator>> idw(n_ue);
  for (std::size_t ue = 0; ue < n_ue; ++ue) {
    if (!stale_[ue]) continue;
    stale_ues.push_back(ue);
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
  }

  // One flat sweep over (stale UE, row) pairs on the pool. Each cell is
  // decided independently, so chunk boundaries cannot change results. Each
  // chunk reuses one search scratch across its cells.
  const std::size_t rows = static_cast<std::size_t>(ny_);
  const auto estimate_row = [&](std::size_t item, IdwInterpolator::Scratch& scratch) {
    const std::size_t ue = stale_ues[item / rows];
    const int iy = static_cast<int>(item % rows);
    // Temporal aggregation: fresh measurements dominate near the tour, the
    // prior epoch's map dominates far from it.
    const bool blend =
        source_[ue] == BackgroundSource::kPrior && params.background_blend_m > 0.0;
    const bool has_bg = source_[ue] != BackgroundSource::kNone;
    const std::size_t base =
        ue * cells_ + static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx_);
    for (int ix = 0; ix < nx_; ++ix) {
      const std::size_t f = base + static_cast<std::size_t>(ix);
      if (counts_[f] > 0) {
        estimate_[f] = sums_[f] / counts_[f];
        continue;
      }
      const std::optional<IdwInterpolator::EstimateWithDistance> est =
          idw[ue]->estimate_with_distance(center_of({ix, iy}), params.k_neighbors,
                                          params.power, params.max_radius_m, scratch);
      if (est && blend) {
        const double w = std::exp(-est->nearest_m / params.background_blend_m);
        estimate_[f] = w * est->value + (1.0 - w) * background_[f];
      } else if (est) {
        estimate_[f] = est->value;
      } else if (has_bg) {
        estimate_[f] = background_[f];
      } else {
        estimate_[f] = 0.0;
      }
    }
  };
  core::parallel_for_chunks(stale_ues.size() * rows, 0,
                            [&](std::size_t, std::size_t begin, std::size_t end) {
                              IdwInterpolator::Scratch scratch;
                              for (std::size_t item = begin; item < end; ++item)
                                estimate_row(item, scratch);
                            });

  for (std::size_t ue = 0; ue < n_ue; ++ue) {
    stale_[ue] = 0;
    // Per-UE fill: one observation per UE map refreshed.
    SKYRAN_HISTOGRAM_OBSERVE(
        "rem.fill.measured_fraction",
        static_cast<double>(measured_count_[ue]) / static_cast<double>(cells_));
  }
  estimated_once_ = true;
  last_params_ = params;

  stats_.cells_total = n_ue * cells_;
  stats_.cells_reestimated = stale_ues.size() * cells_;
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

// RemBank: the REM engine (paper Secs 3.3/3.5). A Radio Environment Map is
// a per-UE 2-D grid over the operating area at the target altitude, each cell
// holding the SNR from that UAV position to the UE. Cells along flown
// trajectories hold measured averages; the rest are estimated by IDW
// interpolation over measurements, falling back to a model-seeded background
// (FSPL for brand-new UEs, or a reused historical REM, Sec 3.5).
//
// All per-UE REMs of one epoch share the operating area, cell size and
// altitude, so the bank stores them as contiguous N_ue x nx x ny slabs (sums,
// counts, background, cached estimate). Every mutator marks its own UE stale;
// estimate_all() re-rasters each stale UE whole and serves the others from
// the cached slab, so the result is bit-identical to the first (full)
// estimate_all of a bank fed the same deposits (enforced by
// tests/test_rem_bank.cpp, serially and in parallel). A stored REM
// (rem::RemStore) is a one-UE bank.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/field_view.hpp"
#include "geo/grid.hpp"
#include "geo/rect.hpp"
#include "geo/vec.hpp"
#include "rem/idw.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"

namespace skyran::rem {

class RemBank {
 public:
  /// Where a UE's background values came from.
  enum class BackgroundSource { kNone, kModel, kPrior };

  /// Bank over `area` at `altitude_m` with square `cell_size` cells; UEs are
  /// appended with add_ue().
  RemBank(geo::Rect area, double cell_size, double altitude_m);

  /// Append a UE (returns its index). Its maps start empty with no
  /// background; seed via seed_from_model / seed_from.
  std::size_t add_ue(geo::Vec3 ue_position);

  std::size_t ue_count() const { return ue_pos_.size(); }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t cells_per_ue() const { return cells_; }
  const geo::Rect& area() const { return area_; }
  double cell_size() const { return cell_size_; }
  double altitude_m() const { return altitude_m_; }
  const geo::Vec3& ue_position(std::size_t ue) const;

  /// Record one SNR report for `ue` taken at UAV ground-position `at` (the
  /// UAV is at the bank altitude). Reports within a cell are averaged
  /// (Sec 3.3.3); the UE is marked stale for the next estimate_all.
  void add_measurement(std::size_t ue, geo::Vec2 at, double snr_db);

  /// Seed `ue`'s background with `model` SNR predictions through `budget`
  /// (brand-new UEs, Sec 3.5). Does not mark cells measured.
  void seed_from_model(std::size_t ue, const rf::ChannelModel& model,
                       const rf::LinkBudget& budget);

  /// Seed `ue`'s background from a stored one-UE bank's estimate (positional
  /// reuse, Sec 3.5): a copy of `prior` is estimated with `params` and its
  /// slab becomes the background. Geometry must match. A prior seeded purely
  /// from a model carries no measurement information, so it keeps model
  /// provenance; any other prior gives kPrior.
  void seed_from(std::size_t ue, const RemBank& prior, const IdwParams& params = {});

  /// Number of `ue`'s cells with at least one measurement.
  std::size_t measured_cells(std::size_t ue) const;
  BackgroundSource background_source(std::size_t ue) const;

  /// Number of raw reports accumulated in a cell of `ue` (0 = unmeasured).
  int measurement_count(std::size_t ue, geo::CellIndex c) const;
  /// Measured mean SNR of a cell of `ue`; nullopt when unmeasured.
  std::optional<double> measured_snr(std::size_t ue, geo::CellIndex c) const;

  /// Restore a cell's accumulator verbatim (deserialization); replaces any
  /// existing content of the cell. `count` must be >= 1.
  void restore_measurement(std::size_t ue, geo::CellIndex c, double snr_sum_db, int count);
  /// Restore `ue`'s background raster (cells_per_ue() values, row-major) and
  /// its provenance verbatim (deserialization).
  void restore_background(std::size_t ue, std::span<const double> background,
                          BackgroundSource source);

  /// Refresh the cached estimate slab: measured mean where available, IDW
  /// over measured cells elsewhere, background where no measurement is in
  /// range. Re-rasters every UE a mutator marked stale since the last call,
  /// parallelized over (stale UE x row) work items on the global thread
  /// pool; clean UEs keep their cached slab. Results are bit-for-bit
  /// identical to the first (full) estimate_all of a bank fed the same
  /// deposits, for any worker count. Changing `params` between calls makes
  /// every UE stale (the cache is parameter-specific). Invalid `params` (see
  /// rem::validate) throw before any state changes.
  void estimate_all(const IdwParams& params = {});

  /// True when the cached estimates reflect every deposit/seed so far (i.e.
  /// estimate_all ran and no UE went stale since).
  bool estimates_current() const;

  /// Non-owning view of `ue`'s cached estimate; valid until the bank is
  /// mutated or destroyed. Requires estimates_current().
  geo::FieldView<const double> estimate(std::size_t ue) const;
  /// Views for every UE, in UE order (placement/planner input).
  std::vector<geo::FieldView<const double>> estimate_views() const;
  /// Owning copy of `ue`'s cached estimate.
  geo::Grid2D<double> estimate_grid(std::size_t ue) const;

  /// Non-owning view of `ue`'s background raster.
  geo::FieldView<const double> background(std::size_t ue) const;

  /// One-UE copy of `ue`: its sums, counts, background, provenance and
  /// position, with nothing estimated yet (REM store entries).
  RemBank extract(std::size_t ue) const;

  /// Tallies from the last estimate_all() call.
  struct EstimateStats {
    std::size_t cells_total = 0;
    std::size_t cells_reestimated = 0;  ///< cells of stale UEs, re-rastered this call
    std::size_t cells_cached = 0;       ///< cells of clean UEs, served from the cache slab
    double dirty_fraction() const {
      return cells_total == 0
                 ? 0.0
                 : static_cast<double>(cells_reestimated) / static_cast<double>(cells_total);
    }
  };
  const EstimateStats& last_estimate_stats() const { return stats_; }

 private:
  std::size_t flat(std::size_t ue, geo::CellIndex c) const {
    return ue * cells_ + static_cast<std::size_t>(c.iy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(c.ix);
  }
  geo::CellIndex cell_of(geo::Vec2 p) const;
  geo::Vec2 center_of(geo::CellIndex c) const;

  geo::Rect area_;
  double cell_size_;
  double altitude_m_;
  int nx_ = 0;
  int ny_ = 0;
  std::size_t cells_ = 0;

  // Structure-of-arrays slabs, each ue_count() * cells_per_ue() long,
  // UE-major then row-major (same flat order as Grid2D). estimate_ is sized
  // by estimate_all, so a bank that is never estimated (a REM store entry)
  // carries no cache slab.
  std::vector<double> sums_;
  std::vector<int> counts_;
  std::vector<double> background_;
  std::vector<double> estimate_;

  // Per-UE state.
  std::vector<geo::Vec3> ue_pos_;
  std::vector<BackgroundSource> source_;
  std::vector<std::size_t> measured_count_;
  /// Changed since the last estimate_all (new UE, deposit, reseeded or
  /// restored content): the next estimate_all re-rasters the whole UE.
  std::vector<std::uint8_t> stale_;

  bool estimated_once_ = false;
  IdwParams last_params_{};
  EstimateStats stats_{};
};

/// Median absolute difference between two SNR maps (the paper's "median REM
/// accuracy (dB)" metric). Grids must share geometry.
double median_abs_error_db(const geo::Grid2D<double>& estimate,
                           const geo::Grid2D<double>& ground_truth);

}  // namespace skyran::rem

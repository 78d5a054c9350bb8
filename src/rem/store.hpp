// REM store with positional reuse (paper Sec 3.5): REMs are keyed by the UE
// *position* they were measured for, not the UE identity. When a UE appears
// within radius R of a stored position, that REM seeds its estimate; only
// genuinely new positions fall back to the FSPL model. Each entry is a
// one-UE rem::RemBank.
#pragma once

#include <iosfwd>
#include <vector>

#include "geo/point_index.hpp"
#include "rem/bank.hpp"

namespace skyran::rem {

class RemStore {
 public:
  /// `reuse_radius_m`: the paper's R (10 m, chosen from Fig. 9).
  explicit RemStore(double reuse_radius_m = 10.0);

  /// Store `bank`'s UE `ue` (a one-UE copy) under its UE position. If an
  /// entry within R already exists, the new REM replaces it (it is fresher).
  void put(const RemBank& bank, std::size_t ue);

  /// Closest stored REM within R of `position`, if any.
  const RemBank* find_near(geo::Vec2 position) const;

  /// Seed `bank`'s UE `ue` from the nearest stored REM within R when one
  /// exists, else from `fallback_model`. The caller adds measurements to it.
  void seed_bank_ue(RemBank& bank, std::size_t ue, const rf::ChannelModel& fallback_model,
                    const rf::LinkBudget& budget, const IdwParams& idw = {}) const;

  std::size_t size() const { return entries_.size(); }
  double reuse_radius_m() const { return reuse_radius_m_; }
  const std::vector<RemBank>& entries() const { return entries_; }

  /// Persist the store (measured sums and counts, background raster and its
  /// provenance) so the next mission over the same area starts warm.
  /// Versioned binary; load() rejects any malformed stream with a typed
  /// geo::BinFormatError.
  void save(std::ostream& os) const;
  static RemStore load(std::istream& is);

 private:
  double reuse_radius_m_;
  std::vector<RemBank> entries_;
  /// Entries bucketed by UE position; ids are indices into entries_. Kept in
  /// lockstep by put()/load() so lookups are O(points-in-3x3-buckets) instead
  /// of a scan over every stored REM.
  geo::PointIndex index_;
};

}  // namespace skyran::rem

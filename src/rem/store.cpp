#include "rem/store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "geo/binio.hpp"
#include "geo/contract.hpp"

namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'R'};
// v1 was the bare field stream (truncation-detectable only); v2 wraps the
// same payload in the shared geo::binio CRC envelope so any byte flip —
// not just a short read — is rejected. v1 streams are no longer accepted.
constexpr std::uint32_t kVersion = 2;
// Largest raster an entry may declare (2^24 cells, ~350 MB of bank slabs).
// A CRC-valid payload beyond it is corrupt, not a REM worth allocating.
constexpr double kMaxRasterCells = 16777216.0;

/// Field validation for load(): a payload that passed the CRC can still
/// carry values the REM types reject; those are corrupt streams too.
void require(bool ok, const char* what) {
  if (!ok) throw skyran::geo::BinCorruptError(std::string("RemStore::load: ") + what);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

namespace skyran::rem {

RemStore::RemStore(double reuse_radius_m)
    : reuse_radius_m_(reuse_radius_m), index_(std::max(reuse_radius_m, 1e-9)) {
  expects(reuse_radius_m > 0.0, "RemStore: reuse radius must be positive");
}

void RemStore::put(const RemBank& bank, std::size_t ue) {
  RemBank entry = bank.extract(ue);
  const geo::Vec2 pos = entry.ue_position(0).xy();
  // Replaces the earliest-inserted entry within R (first_within returns the
  // minimum id), matching the historical linear scan over entries_.
  if (const std::optional<std::size_t> hit = index_.first_within(pos, reuse_radius_m_)) {
    index_.move(*hit, entries_[*hit].ue_position(0).xy(), pos);
    entries_[*hit] = std::move(entry);
    return;
  }
  index_.insert(pos, entries_.size());
  entries_.push_back(std::move(entry));
}

const RemBank* RemStore::find_near(geo::Vec2 position) const {
  // nearest_within breaks distance ties on the lower id, matching the
  // strict-< improvement rule of the historical scan (earliest entry wins).
  const std::optional<std::size_t> hit = index_.nearest_within(position, reuse_radius_m_);
  return hit ? &entries_[*hit] : nullptr;
}

void RemStore::save(std::ostream& os) const {
  geo::BinWriter w;
  w.pod(reuse_radius_m_);
  w.pod(static_cast<std::uint32_t>(entries_.size()));
  for (const RemBank& r : entries_) {
    w.pod(r.area().min.x);
    w.pod(r.area().min.y);
    w.pod(r.area().max.x);
    w.pod(r.area().max.y);
    w.pod(r.cell_size());
    w.pod(r.altitude_m());
    w.pod(r.ue_position(0).x);
    w.pod(r.ue_position(0).y);
    w.pod(r.ue_position(0).z);
    w.pod(static_cast<std::uint32_t>(r.measured_cells(0)));
    for (int iy = 0; iy < r.ny(); ++iy)
      for (int ix = 0; ix < r.nx(); ++ix) {
        const int n = r.measurement_count(0, {ix, iy});
        if (n == 0) continue;
        w.pod(static_cast<std::int32_t>(ix));
        w.pod(static_cast<std::int32_t>(iy));
        w.pod(*r.measured_snr(0, {ix, iy}) * n);  // sum
        w.pod(static_cast<std::int32_t>(n));
      }
    // Background raster + provenance (new in v2). v1 dropped these, which
    // made a reloaded store seed the next epoch's REMs from a different
    // fallback than the live store — fatal for bit-identical resume.
    w.pod(static_cast<std::uint8_t>(r.background_source(0)));
    if (r.background_source(0) != RemBank::BackgroundSource::kNone) {
      const geo::FieldView<const double> bg = r.background(0);
      for (std::size_t i = 0; i < bg.size(); ++i) w.pod(bg[i]);
    }
  }
  geo::write_envelope(os, kMagic, kVersion, w);
  if (!os) throw std::runtime_error("RemStore::save: write failed");
}

RemStore RemStore::load(std::istream& is) {
  const std::string payload = geo::read_envelope(is, kMagic, kVersion, "RemStore::load");
  geo::BinReader r(payload);
  const double radius = r.pod<double>();
  require(finite_positive(radius), "reuse radius must be finite and positive");
  RemStore store(radius);
  const auto n_entries = r.pod<std::uint32_t>();
  for (std::uint32_t e = 0; e < n_entries; ++e) {
    const double min_x = r.pod<double>();
    const double min_y = r.pod<double>();
    const double max_x = r.pod<double>();
    const double max_y = r.pod<double>();
    const double cell = r.pod<double>();
    const double altitude = r.pod<double>();
    const double ux = r.pod<double>();
    const double uy = r.pod<double>();
    const double uz = r.pod<double>();
    const auto n_cells = r.pod<std::uint32_t>();
    require(std::isfinite(min_x) && std::isfinite(min_y) && std::isfinite(max_x) &&
                std::isfinite(max_y) && max_x > min_x && max_y > min_y,
            "area must be finite and non-empty");
    require(finite_positive(cell), "cell size must be finite and positive");
    require(finite_positive(altitude), "altitude must be finite and positive");
    require(std::isfinite(ux) && std::isfinite(uy) && std::isfinite(uz),
            "UE position must be finite");
    // Same layout formula as RemBank, in doubles so a huge raster cannot
    // overflow the int cell counts before it is rejected.
    const double nx = std::max(std::ceil((max_x - min_x) / cell - 1e-9), 1.0);
    const double ny = std::max(std::ceil((max_y - min_y) / cell - 1e-9), 1.0);
    require(nx * ny <= kMaxRasterCells, "raster too large");
    RemBank bank(geo::Rect{{min_x, min_y}, {max_x, max_y}}, cell, altitude);
    bank.add_ue({ux, uy, uz});
    require(n_cells <= bank.cells_per_ue(), "measured-cell count exceeds the raster");
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      const auto ix = r.pod<std::int32_t>();
      const auto iy = r.pod<std::int32_t>();
      const double sum = r.pod<double>();
      const auto count = r.pod<std::int32_t>();
      require(ix >= 0 && ix < bank.nx() && iy >= 0 && iy < bank.ny(),
              "cell index out of range");
      require(count >= 1, "measurement count below 1");
      bank.restore_measurement(0, {ix, iy}, sum, count);
    }
    const auto source_raw = r.pod<std::uint8_t>();
    require(source_raw <= static_cast<std::uint8_t>(RemBank::BackgroundSource::kPrior),
            "bad background source tag");
    const auto source = static_cast<RemBank::BackgroundSource>(source_raw);
    if (source != RemBank::BackgroundSource::kNone) {
      if (r.remaining() / sizeof(double) < bank.cells_per_ue())
        throw geo::BinTruncatedError("RemStore::load: truncated background raster");
      std::vector<double> background(bank.cells_per_ue());
      for (double& v : background) v = r.pod<double>();
      bank.restore_background(0, background, source);
    }
    store.index_.insert(bank.ue_position(0).xy(), store.entries_.size());
    store.entries_.push_back(std::move(bank));
  }
  require(r.done(), "trailing bytes after last entry");
  return store;
}

void RemStore::seed_bank_ue(RemBank& bank, std::size_t ue,
                            const rf::ChannelModel& fallback_model,
                            const rf::LinkBudget& budget, const IdwParams& idw) const {
  if (const RemBank* prior = find_near(bank.ue_position(ue).xy())) {
    bank.seed_from(ue, *prior, idw);
  } else {
    bank.seed_from_model(ue, fallback_model, budget);
  }
}

}  // namespace skyran::rem

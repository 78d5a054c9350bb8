#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "geo/contract.hpp"

namespace skyran::sim {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t epoch_salt)
    : plan_(std::move(plan)),
      rng_(plan_.seed ^ (0x9e3779b97f4a7c15ULL * (epoch_salt + 1))),
      active_(!plan_.empty()) {
  for (const FaultWindow& w : plan_.windows) {
    expects(w.start_s >= 0.0 && w.end_s >= w.start_s,
            "FaultPlan: window must satisfy 0 <= start <= end");
    expects(std::isfinite(w.magnitude) && w.magnitude >= 0.0,
            "FaultPlan: magnitude must be finite and >= 0");
    if (w.kind == FaultKind::kSrsSymbolLoss || w.kind == FaultKind::kBatterySag)
      expects(w.magnitude <= 1.0, "FaultPlan: probability/fraction magnitude must be <= 1");
  }
}

bool FaultInjector::srs_symbol_lost(double t) {
  if (!active_) return false;
  double loss_p = 0.0;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kSrsSymbolLoss && w.contains(t))
      loss_p = std::max(loss_p, w.magnitude);
  if (loss_p <= 0.0) return false;
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  return u01(rng_) < loss_p;
}

double FaultInjector::srs_snr_sag_db(double t) const {
  if (!active_) return 0.0;
  double sag = 0.0;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kSrsSnrSag && w.cell < 0 && w.contains(t)) sag += w.magnitude;
  return sag;
}

double FaultInjector::cell_snr_sag_db(double t, std::int32_t cell) const {
  if (!active_) return 0.0;
  double sag = 0.0;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kSrsSnrSag && (w.cell < 0 || w.cell == cell) && w.contains(t))
      sag += w.magnitude;
  return sag;
}

bool FaultInjector::gps_forced_outage(double t) const {
  if (!active_) return false;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kGpsOutage && w.contains(t)) return true;
  return false;
}

double FaultInjector::battery_sag_fraction(double t) const {
  if (!active_) return 0.0;
  double sag = 0.0;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kBatterySag && w.start_s <= t) sag += w.magnitude;
  return std::min(sag, 1.0);
}

geo::Vec2 FaultInjector::wind_offset_m(double t) const {
  geo::Vec2 offset{};
  if (!active_) return offset;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind != FaultKind::kWindDrift) continue;
    const double overlap = std::min(t, w.end_s) - w.start_s;
    if (overlap <= 0.0) continue;
    offset += geo::Vec2{std::cos(w.heading_rad), std::sin(w.heading_rad)} *
              (w.magnitude * overlap);
  }
  return offset;
}

bool FaultInjector::backhaul_down(double t) const {
  if (!active_) return false;
  for (const FaultWindow& w : plan_.windows)
    if (w.kind == FaultKind::kBackhaulOutage && w.contains(t)) return true;
  return false;
}

}  // namespace skyran::sim

// Fault injection for the epoch pipeline. A FaultPlan is a deterministic,
// seeded schedule of fault windows over epoch flight time; a FaultInjector
// evaluates it while the epoch runs. Every fault class has a defined
// degraded behavior downstream (tuple dropping, partial REM deposits,
// localization fallback) instead of a crash or silent garbage — SkyRAN's
// premise is a RAN that keeps serving while the platform is flaky
// (paper Secs 3.3/3.6).
//
// Time base: seconds of epoch flight time. t = 0 is the start of the
// localization flight; measurement tours follow at the epoch's running
// flight-time cursor. An empty plan is a strict no-op: no RNG draws, no
// arithmetic changes, bit-identical output to a build without the subsystem.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "geo/mt19937.hpp"
#include "geo/vec.hpp"
#include "localization/pipeline.hpp"

namespace skyran::sim {

enum class FaultKind {
  kSrsSymbolLoss,   ///< magnitude: probability in [0,1] each SRS symbol is lost
  kSrsSnrSag,       ///< magnitude: dB subtracted from the received SRS SNR
  kGpsOutage,       ///< GPS fixes are invalid for the whole window
  kBatterySag,      ///< magnitude: fraction of capacity lost when the window opens
  kWindDrift,       ///< magnitude: drift speed m/s along heading_rad
  kBackhaulOutage,  ///< measurement SNR reports are lost inside the window
};

struct FaultWindow {
  FaultKind kind = FaultKind::kSrsSymbolLoss;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  double magnitude = 0.0;
  double heading_rad = 0.0;  ///< wind direction (kWindDrift only)
  /// Fleet cell index this window is scoped to; -1 (default) hits every
  /// cell and the single-UAV pipeline. A scoped window is invisible to
  /// srs_snr_sag_db() and only surfaces through cell_snr_sag_db().
  std::int32_t cell = -1;

  bool contains(double t) const { return t >= start_s && t < end_s; }
};

/// A scripted schedule of fault windows. Deterministic: the same plan, seed
/// and epoch produce the same injected faults on every run and any worker
/// count (the only randomness, per-symbol SRS loss, is drawn in the serial
/// synthesis phase of the ranging pipeline).
struct FaultPlan {
  std::vector<FaultWindow> windows;
  std::uint64_t seed = 0;

  bool empty() const { return windows.empty(); }

  /// Fluent helper: append a window and return *this for chaining.
  FaultPlan& add(FaultWindow w) {
    windows.push_back(w);
    return *this;
  }
};

/// Evaluates a FaultPlan during one epoch. Default-constructed (or built
/// from an empty plan) it reports active() == false and every query is a
/// constant pass-through; callers gate all fault work on active() so the
/// zero-fault hot path stays untouched.
class FaultInjector final : public localization::RangingFaultModel {
 public:
  FaultInjector() = default;

  /// `epoch_salt` (typically the epoch number) decorrelates the per-symbol
  /// loss stream across epochs while staying deterministic per (plan, epoch).
  explicit FaultInjector(FaultPlan plan, std::uint64_t epoch_salt = 0);

  bool active() const { return active_; }
  const FaultPlan& plan() const { return plan_; }

  // localization::RangingFaultModel
  bool srs_symbol_lost(double t) override;
  double srs_snr_sag_db(double t) const override;
  bool gps_forced_outage(double t) const override;

  /// SNR sag seen by fleet cell `cell` at time `t`: the sum of kSrsSnrSag
  /// windows that are either unscoped (window.cell < 0) or scoped to this
  /// cell. The single-UAV srs_snr_sag_db() only sums unscoped windows.
  double cell_snr_sag_db(double t, std::int32_t cell) const;

  /// Cumulative capacity fraction sagged by battery windows whose start has
  /// passed by time `t` (each window fires once, at its start).
  double battery_sag_fraction(double t) const;

  /// Integrated wind displacement at time `t`: every wind window drifts the
  /// airframe at `magnitude` m/s along `heading_rad` while it is open.
  geo::Vec2 wind_offset_m(double t) const;

  /// True while a backhaul outage window covers `t` (measurement SNR reports
  /// cannot reach the REM).
  bool backhaul_down(double t) const;

 private:
  FaultPlan plan_;
  geo::Mt19937_64 rng_{0};
  bool active_ = false;
};

}  // namespace skyran::sim

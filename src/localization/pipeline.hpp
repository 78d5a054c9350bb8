// End-to-end ranging pipeline (paper Fig. 10 steps 1-3): fly a trajectory,
// receive 100 Hz SRS per UE, estimate per-symbol ToF by correlation, average
// the M ToF values between consecutive 50 Hz GPS fixes, and emit GPS-ToF
// tuples. The SRS channel is driven by the ground-truth propagation model:
// LOS links get clean AWGN symbols, NLOS links get multipath echoes, which
// reproduces the paper's 5 ns (LOS) vs 25 ns (NLOS) ToF noise.
#pragma once

#include <cstdint>

#include "geo/mt19937.hpp"
#include "localization/tuples.hpp"
#include "lte/ranging.hpp"
#include "lte/srs_channel.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "uav/flight.hpp"
#include "uav/gps.hpp"

namespace skyran::localization {

/// SRS upsampling factor K of the ToF correlator (the paper uses 4).
inline constexpr int kUpsampleFactor = 4;
/// Constant onboard processing delay expressed as distance; unknown to the
/// solver (it estimates it as the offset `b`).
inline constexpr double kProcessingOffsetM = 40.0;
/// SRS and GPS report rates: the ToF values between two GPS fixes are
/// averaged into one tuple.
inline constexpr double kSrsRateHz = 100.0;
inline constexpr double kGpsRateHz = 50.0;
static_assert(kSrsRateHz >= kGpsRateHz, "SRS must report at least as fast as GPS");

struct RangingConfig {
  lte::SrsConfig srs{};
  /// SRS reports below this SNR are discarded. The correlator enjoys the
  /// sequence's processing gain (~25 dB for 288 REs), so ranging works well
  /// below the data-decode threshold.
  double min_snr_db = -10.0;
  /// Correlation quality gate: per-symbol ToF estimates whose
  /// peak-to-sidelobe ratio falls below this many dB are dropped before the
  /// per-interval average (they carry no delay information, only bias). 0
  /// disables the gate, which keeps the legacy zero-fault path bit-identical.
  double min_peak_to_side_db = 0.0;
};

/// Scripted degradation applied to the ranging pipeline (fault injection).
/// Implemented by sim::FaultInjector; defined here so the localization layer
/// stays independent of the simulation layer. Times are seconds of epoch
/// flight time (the localization flight starts at t = 0).
class RangingFaultModel {
 public:
  virtual ~RangingFaultModel() = default;
  /// The SRS symbol transmitted at time `t` never reaches the correlator
  /// (deep fade / interference burst). May draw from the injector's RNG, so
  /// callers must query symbols in flight order.
  virtual bool srs_symbol_lost(double t) = 0;
  /// dB subtracted from the received SRS SNR at time `t`. Queried
  /// concurrently from pool threads, so it must not mutate state.
  virtual double srs_snr_sag_db(double t) const = 0;
  /// True while a scripted GPS outage window covers time `t`.
  virtual bool gps_forced_outage(double t) const = 0;
};

/// Collect GPS-ToF tuples for one UE over a flown trajectory.
///
/// `flight` must be sampled at the GPS rate (uav::fly with dt = 1/kGpsRateHz).
/// A flight with fewer than two samples has no measurement interval and
/// yields an empty series — legitimate for a UAV that spent the whole epoch
/// at the depot (battery swap) or had its tour truncated to nothing.
/// `channel` is the ground truth: one ray trace per symbol gives the path
/// loss (for SRS SNR) and the line of sight (LOS symbols are clean, NLOS
/// ones get multipath echoes); `gps` adds receiver position noise. `faults`,
/// when non-null, injects scripted SRS loss / SNR sag / GPS outage windows;
/// the pipeline degrades by dropping the affected tuples (never by aborting).
/// Ray traces, sag and the per-symbol channel response run on the thread
/// pool; srs_symbol_lost, every `rng` draw and the GPS sensor stay on the
/// calling thread in flight order, so the output is bit-identical for any
/// worker count.
GpsTofSeries collect_gps_tof(const std::vector<uav::FlightSample>& flight, geo::Vec3 ue_position,
                             const rf::RayTraceChannel& channel, const rf::LinkBudget& budget,
                             uav::GpsSensor& gps, const RangingConfig& config,
                             geo::Mt19937_64& rng, RangingFaultModel* faults = nullptr);

}  // namespace skyran::localization

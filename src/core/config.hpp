// Configuration for the SkyRAN epoch state machine: the operator-settable
// knobs the paper names (epoch trigger threshold ~10%, REM reuse radius R =
// 10 m, measurement budget, K range, placement objective) plus the settings
// its evaluations and tools vary. Every field is one some caller sets; the
// fixed physical and airframe constants sit next to the code that reads them.
#pragma once

#include <cstdint>

#include "localization/localizer.hpp"
#include "lte/traffic_plane.hpp"
#include "rem/placement.hpp"
#include "rem/planner.hpp"
#include "sim/faults.hpp"
#include "sim/measurement.hpp"
#include "uav/battery.hpp"

namespace skyran::core {

/// How the epoch obtains UE positions (the PHY pipeline is the real system;
/// the other modes support ablations like Fig. 9 and fast scale-up sweeps).
enum class LocalizationMode {
  kPhy,            ///< full SRS/ToF/multilateration pipeline
  kPerfect,        ///< oracle positions (upper bound)
  kGaussianError,  ///< oracle + injected error of a configured magnitude
};

/// Service phase (epoch step "serve"): after placement, a per-TTI traffic
/// plane carries MAC-level load from the chosen position so the epoch report
/// scores what the RAN actually delivers, not just SNR.
struct ServicePhaseConfig {
  /// TTIs (1 ms each) of traffic served per epoch; 0 disables the phase.
  int ttis = 256;
  /// Traffic-plane knobs. carrier and seed are overwritten per epoch (the
  /// world's carrier; a seed derived from the SkyRan seed and epoch number).
  lte::TrafficPlaneConfig plane{};
  /// Traffic model every served UE runs (CBR keeps queue-delay percentiles
  /// meaningful; switch to kFullBuffer for pure capacity numbers).
  lte::TrafficSpec ue_traffic{.model = lte::TrafficModel::kCbr, .rate_bps = 2e6};
};

struct SkyRanConfig {
  /// Working REM raster (the paper uses 1 m on the testbed; coarser cells
  /// keep large-area sweeps tractable and are reported as such).
  double rem_cell_m = 4.0;

  /// New epoch when served performance drops below (1 - threshold) of the
  /// value at placement time (Sec 3.5; operator default 10%).
  double epoch_drop_threshold = 0.10;

  /// REM positional reuse radius R (Sec 3.5).
  double reuse_radius_m = 10.0;

  /// Per-epoch measurement tour budget in meters (0 = planner unconstrained).
  double measurement_budget_m = 800.0;

  rem::PlannerConfig planner{};
  rem::IdwParams idw{};
  localization::LocalizerConfig localizer{};
  sim::MeasurementConfig measurement{};
  rem::PlacementObjective objective = rem::PlacementObjective::kMaxMin;

  LocalizationMode localization_mode = LocalizationMode::kPhy;
  /// Mean localization error injected in kGaussianError mode, meters.
  double injected_error_m = 0.0;

  /// Measurement tours stop once the battery falls to this fraction: the
  /// remainder is reserved for serving and returning home (Sec 2.5: "the
  /// shorter the measurement flight, the longer the LTE endurance").
  double battery_reserve_fraction = 0.3;

  /// Energy model of the airframe's battery (capacity, hover/forward draw).
  uav::BatteryParams battery{};

  /// Per-epoch service phase (traffic served after placement).
  ServicePhaseConfig service{};

  /// Scripted fault schedule applied to every epoch (times are epoch
  /// flight-time seconds, t = 0 at the localization flight's start). An
  /// empty plan — the default — is a strict no-op: the zero-fault pipeline
  /// is bit-identical to one built without fault injection.
  sim::FaultPlan faults{};

  /// Worker threads for the per-epoch hot paths (SRS correlation, REM
  /// interpolation, k-means, placement scoring). 0 = auto: the
  /// SKYRAN_THREADS environment variable if set, else hardware concurrency.
  /// 1 forces fully serial execution. Scoped to this instance (applied as a
  /// thread-local override inside each SkyRan entry point, never as
  /// process-wide state). Parallel results are bit-for-bit identical to
  /// serial (see DESIGN.md, "Concurrency model").
  int threads = 0;
};

}  // namespace skyran::core

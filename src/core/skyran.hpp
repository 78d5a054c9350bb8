// SkyRan: the public facade running the paper's full epoch state machine
// (Fig. 10): (1) UE localization flight -> (2) optimal altitude (first epoch)
// -> (3) gradient/cluster/TSP measurement tour -> (4) REM update -> (5)
// max-min placement -> (6) serve until aggregate performance degrades past
// the trigger threshold, with REM and trajectory-history reuse across epochs.
// The state carried between epochs is listed once, in write_state(), and
// read back once, by read_state(); core::Snapshot seals those bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "geo/mt19937.hpp"
#include "geo/point_index.hpp"
#include "rem/bank.hpp"
#include "rem/store.hpp"
#include "sim/faults.hpp"
#include "sim/world.hpp"
#include "uav/battery.hpp"

namespace skyran::geo {
class BinReader;
}

namespace skyran::core {

class Snapshot;

/// Everything that happened in one epoch.
struct EpochReport {
  int epoch = 0;
  std::vector<geo::Vec2> estimated_ue_positions;
  std::vector<bool> reused_rem;          ///< per UE: background came from the store
  double localization_flight_m = 0.0;
  double altitude_flight_m = 0.0;        ///< vertical descent during Step 5
  double measurement_flight_m = 0.0;
  double total_flight_m = 0.0;
  double flight_time_s = 0.0;            ///< all flying this epoch, at cruise speed
  double altitude_m = 0.0;
  geo::Vec2 position;                    ///< chosen operating position
  double predicted_objective_snr_db = 0.0;
  double served_mean_throughput_bps = 0.0;  ///< true mean throughput at placement
  int planned_k = 0;
  double info_to_cost = 0.0;
  int measurement_rounds = 0;            ///< tours actually flown this epoch
  /// Service-phase outcome: per-TTI traffic served from the placement
  /// (throughput/fairness/latency percentiles, HARQ accounting).
  lte::TrafficPlaneReport traffic;
  /// True when the epoch took a degraded path: a UE could not be localized
  /// (position fell back to the previous epoch's estimate or the area
  /// center), a tour was aborted mid-flight on battery, or the measurement
  /// loop stopped on the battery reserve before the budget was spent.
  bool degraded = false;
};

class SkyRan {
 public:
  /// `world` is the physical reality; SkyRan only senses it through
  /// simulated flights and PHY reports. UE positions inside the world may
  /// change between epochs (mobility); SkyRan re-localizes each epoch.
  SkyRan(sim::World& world, SkyRanConfig config, std::uint64_t seed);

  /// Run one full epoch. The UAV ends hovering at the chosen placement.
  EpochReport run_epoch();

  /// True mean throughput the UEs currently receive from the UAV's position.
  double current_mean_throughput_bps() const;

  /// Served throughput relative to the value recorded at placement time.
  double served_performance_ratio() const;

  /// Epoch trigger (Sec 3.5): performance dropped below (1 - threshold).
  bool should_trigger_epoch() const;

  geo::Vec2 position() const { return position_; }
  double altitude_m() const { return altitude_; }
  int epochs_run() const { return epoch_; }
  double total_flight_m() const { return total_flight_m_; }
  const rem::RemStore& rem_store() const { return store_; }
  /// The current epoch's REMs, bank-resident (one shared-geometry slab per
  /// UE). Valid after the first run_epoch().
  const rem::RemBank& rem_bank() const;
  const uav::Battery& battery() const { return battery_; }
  const SkyRanConfig& config() const { return config_; }

  /// Capture the full between-epoch session state: write_state() into a
  /// payload sized before it is written. Only meaningful between
  /// run_epoch() calls.
  Snapshot snapshot() const;

  /// Restore state captured by snapshot(): run_epoch() then continues the
  /// session bit-identically to the uninterrupted run (see core/snapshot.hpp
  /// for the resume contract). The world's UE positions are restored too.
  /// Throws what read_state() throws, and then leaves the session unchanged.
  void restore(const Snapshot& snapshot);

  /// The one list of the persisted state, into a geo::BinWriter,
  /// geo::Fnv1a or geo::ByteCount: seed, config_digest, epoch, pose, flight,
  /// throughput at placement, battery, RNG text, last estimates, world UE
  /// positions, the REM store as a nested envelope, trajectory histories.
  template <class Sink>
  void write_state(Sink& sink) const;

  /// Read what write_state() wrote. Throws geo::StateMismatchError for
  /// another session's seed or config and geo::BinFormatError for bytes no
  /// save holds. All or nothing: on any throw the session is unchanged.
  void read_state(geo::BinReader& r);

 private:
  std::vector<geo::Vec2> localize_ues(EpochReport& report);
  double ensure_altitude(const std::vector<geo::Vec2>& ue_estimates, EpochReport& report);
  /// Apply any battery-sag fault windows opened by epoch flight time `t`
  /// (each window fires once per epoch).
  void apply_battery_sag(double t);

  sim::World& world_;
  SkyRanConfig config_;
  std::uint64_t seed_;  ///< construction seed (service-phase derivation)
  geo::Mt19937_64 rng_;
  rf::FsplChannel fspl_;

  rem::RemStore store_;
  /// Trajectory history keyed by UE position (same radius-R reuse rule).
  struct HistoryEntry {
    geo::Vec2 position;
    rem::TrajectoryHistory trajectories;
  };
  std::vector<HistoryEntry> history_;
  /// history_ entries bucketed by position; ids are indices into history_.
  /// first_within matches the historical "first entry in insertion order
  /// within R" rule without the linear scan.
  geo::PointIndex history_index_;
  rem::TrajectoryHistory& history_for(geo::Vec2 ue_position);
  const rem::TrajectoryHistory* find_history(geo::Vec2 ue_position) const;

  /// Rebuilt at the top of every epoch (geometry can change with altitude).
  std::optional<rem::RemBank> bank_;
  geo::Vec2 position_;
  double altitude_ = 0.0;
  bool altitude_known_ = false;
  int epoch_ = 0;
  double total_flight_m_ = 0.0;
  double throughput_at_placement_bps_ = 0.0;
  uav::Battery battery_;

  /// Fault injection state, rebuilt at the top of every epoch from
  /// config_.faults (deterministic per epoch number).
  sim::FaultInjector faults_;
  /// Capacity fraction already sagged this epoch (battery windows fire once).
  double battery_sag_applied_ = 0.0;
  /// Set by the degraded paths while an epoch runs; copied into the report.
  bool epoch_degraded_ = false;
  /// Last epoch's final position estimates: the fallback for a UE whose
  /// localization fails this epoch (positional REM reuse then still works).
  std::vector<geo::Vec2> last_estimates_;
};

}  // namespace skyran::core

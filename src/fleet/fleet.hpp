// fleet::Fleet — a multi-cell UAV RAN over one shared ground area: tens of
// UAV cells sharing a co-channel carrier, each serving its attached UEs
// through an lte::TrafficPlane, with inter-cell interference (SINR, not
// per-cell SNR), A3-style handover and a RIC-flavored closed control loop
// that steers traffic between cells by biasing cell-individual offsets
// (CIO) toward the least-loaded cell.
//
// One fleet epoch (run_epoch) is five phases:
//
//   measure  (parallel over UEs)  DL RSRP from every cell into an
//                                 n_ues x n_cells SoA slab (path loss via
//                                 the shared ChannelModel + per-cell fault
//                                 sag from the FaultPlan)
//   decide   (parallel over UEs)  A3 entry check + time-to-trigger state
//                                 per UE (disjoint per-UE slabs)
//   apply    (serial, UE order)   attachment + handover execution, event
//                                 log, ping-pong detection
//   sinr     (parallel over UEs)  serving power over noise + sum of
//                                 non-serving co-channel powers
//   serve    (parallel over cells) per-cell TrafficPlane rebuilt from the
//                                 epoch's membership, run ttis_per_epoch
//                                 TTIs inline on the cell's lane; per-cell
//                                 PRB utilization is demand-based (PRBs the
//                                 offered traffic needs at the members' CQI
//                                 over the grid), not granted PRBs — the PF
//                                 scheduler spreads the whole grid over any
//                                 backlog; cell totals summed in cell order
//
// plus, every steering.period_epochs epochs, one gradient step on the
// per-cell PRB utilization: the most-loaded cell's CIO steps down and the
// least-loaded cell's CIO steps up (clamped to +-max_cio_db), so boundary
// UEs drain from hot cells at the next A3 evaluation. The epoch ends at the
// sim::crash_point("epoch.steer") kill point.
//
// Determinism contract (same as the rest of the repo): all parallel phases
// write disjoint per-UE (serve: per-cell) slots, chunk boundaries depend
// only on the range length, all randomness is counter-based — serial and
// N-worker runs are bit-for-bit identical, enforced by state_hash() in
// tests/test_fleet.cpp and in-bench by bench/ablation_fleet. write_state()
// lists the persisted state once: save() wraps its bytes in an envelope and
// state_hash() is FNV-1a over the same bytes. restore() into an identically
// constructed fleet resumes bit-identically (tests/test_fleet.cpp
// round-trip + kill-at-phase harness).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <tuple>
#include <vector>

#include "geo/vec.hpp"
#include "lte/traffic_plane.hpp"
#include "rf/channel.hpp"
#include "sim/faults.hpp"
#include "terrain/terrain.hpp"

namespace skyran::geo {
class BinReader;
}

namespace skyran::rem {
class RemBank;
}

namespace skyran::fleet {

/// A3 handover event (3GPP 36.331 A3: neighbor becomes offset-better than
/// serving): the neighbor's biased RSRP must exceed the serving cell's by
/// offset + hysteresis for time_to_trigger consecutive epochs.
struct A3Config {
  double offset_db = 2.0;
  double hysteresis_db = 1.0;
  /// Consecutive epochs the A3 condition must hold before the handover
  /// executes (>= 1; 1 = execute in the epoch the condition first holds).
  int time_to_trigger_epochs = 2;
  /// A handover back to the previous serving cell within this many epochs
  /// of the last handover counts as a ping-pong.
  int pingpong_window_epochs = 4;
};

/// Closed-loop traffic steering: every period_epochs epochs, one gradient
/// step on per-cell PRB utilization — the most-loaded cell sheds (CIO down)
/// and the least-loaded cell attracts (CIO up), both clamped to
/// +-max_cio_db. No step fires while the utilization spread is inside
/// util_deadband (stability: see docs/FLEET.md, "Steering control law").
struct SteeringConfig {
  bool enabled = true;
  int period_epochs = 2;
  double step_db = 1.0;
  double max_cio_db = 6.0;
  double util_deadband = 0.05;
};

struct FleetConfig {
  /// Template for every cell's per-epoch TrafficPlane; `seed` inside it is
  /// ignored (the fleet derives a per-(cell, epoch) plane seed).
  lte::TrafficPlaneConfig plane{};
  /// TTIs each cell's traffic plane advances per fleet epoch.
  int ttis_per_epoch = 200;
  A3Config a3{};
  SteeringConfig steering{};
  /// Per-cell fault scoping: kSrsSnrSag windows with FaultWindow::cell set
  /// sag only that cell's DL RSRP (time base: t = epoch - 1).
  sim::FaultPlan faults{};
  std::uint64_t seed = 1;
  /// Worker lanes for the parallel phases (0 = inherit the process-wide
  /// resolution; 1 = fully serial). Bit-identical either way.
  int threads = 0;
};

/// One executed handover (or logged event), emitted in UE order within an
/// epoch. The in-memory log is bounded (kMaxHandoverLog); overflow is
/// counted, never silently dropped.
struct HandoverEvent {
  std::int32_t epoch = 0;
  std::uint32_t ue = 0;
  std::int32_t from = -1;
  std::int32_t to = -1;
  bool pingpong = false;
};

/// Per-epoch outcome. Every field is a deterministic function of
/// (config, population, epoch) — bit-identical across worker counts.
struct FleetEpochReport {
  int epoch = 0;

  // Mobility-plane events, this epoch.
  std::uint64_t attach_events = 0;  ///< initial attachments executed
  std::uint64_t ho_attempts = 0;    ///< UE-epochs with the A3 condition true
  std::uint64_t ho_successes = 0;   ///< handovers executed (TTT expired)
  std::uint64_t ho_pingpongs = 0;   ///< successes bouncing back within the window
  int steering_steps = 0;           ///< CIO adjustments applied this epoch

  // Radio plane.
  double min_sinr_db = 0.0;
  double mean_sinr_db = 0.0;

  // Traffic plane, aggregated over cells.
  double offered_bits = 0.0;  ///< arrivals (full-buffer UEs excluded)
  double served_bits = 0.0;
  double aggregate_throughput_bps = 0.0;
  double max_prb_util = 0.0;   ///< hottest cell's PRB utilization in [0, 1]
  double mean_prb_util = 0.0;
  std::vector<double> cell_prb_util;     ///< per cell, [0, 1]
  std::vector<std::uint32_t> cell_ues;   ///< members per cell after apply
};

/// Outcome of one staggered placement refresh (see refresh_placement).
struct PlacementRefresh {
  int cell = -1;          ///< cell refreshed; -1 when the fleet is empty
  geo::Vec2 position{};   ///< chosen hover position (== old xy when points == 0)
  double objective_db = 0.0;  ///< max-min load-penalized SNR at the choice
  int points = 0;         ///< REM pseudo-UEs scored for this cell
};

class Fleet {
 public:
  /// `channel` is the shared path-loss oracle (borrowed; must outlive the
  /// fleet). A cheap model (rf::FsplChannel) keeps the n_ues x n_cells
  /// measure phase in budget at 10^5 UEs.
  Fleet(FleetConfig config, const rf::ChannelModel& channel);

  /// Add a UAV cell hovering at `position`. Returns the cell index.
  std::size_t add_cell(geo::Vec3 position);

  /// Add a UE at `position` with its traffic model. Returns the UE index.
  /// UEs start unattached; the next run_epoch attaches them to the
  /// strongest (CIO-biased) cell. A spec lte::validate rejects throws
  /// ContractViolation and adds nothing.
  std::size_t add_ue(geo::Vec3 position, const lte::TrafficSpec& traffic);

  /// Move a UE (mobility driver hook). Takes effect at the next epoch's
  /// measure phase.
  void set_ue_position(std::size_t ue, geo::Vec3 position);

  /// Replace a UE's traffic model (scenario driver hook: diurnal load
  /// scaling, flash crowds). Takes effect at the next epoch's serve phase.
  /// Specs are NOT persisted by save(): a restoring driver that mutates
  /// specs must re-apply them deterministically before resuming (the
  /// scenario::Campaign derives them from (config, hour)). A spec
  /// lte::validate rejects throws ContractViolation and changes nothing.
  void set_ue_traffic(std::size_t ue, const lte::TrafficSpec& traffic);

  /// Move a cell (external placement driver hook).
  void set_cell_position(std::size_t cell, geo::Vec3 position);

  /// Run one fleet epoch (all phases, then the steering step when due).
  FleetEpochReport run_epoch();

  /// Staggered joint placement: epoch e refreshed cell (e-1) % cell_count.
  /// Each REM pseudo-UE in `bank` is assigned to its strongest cell; the
  /// refreshed cell's assigned maps are copied with a per-point load penalty
  /// subtracted (10*log10 of the point's relative served+offered load, so a
  /// point carrying 10x the mean load needs 10 dB more SNR to score equal)
  /// and scored by the existing max-min placement scorer — max-min
  /// SINR-under-load over the shared RemBank. Requires
  /// bank.estimates_current() and at least one completed epoch.
  PlacementRefresh refresh_placement(const rem::RemBank& bank,
                                     const terrain::Terrain& terrain);

  std::size_t cell_count() const { return cell_pos_.size(); }
  std::size_t ue_count() const { return ue_pos_.size(); }
  int epochs_run() const { return epoch_; }
  geo::Vec3 cell_position(std::size_t cell) const { return cell_pos_[cell]; }
  geo::Vec3 ue_position(std::size_t ue) const { return ue_pos_[ue]; }
  /// Serving cell index, or -1 before the UE's first attachment.
  std::int32_t serving_cell(std::size_t ue) const { return serving_[ue]; }
  /// Last epoch's SINR (dB) for `ue`; meaningless before the first epoch.
  double sinr_db(std::size_t ue) const { return sinr_db_[ue]; }
  double cio_db(std::size_t cell) const { return cio_db_[cell]; }
  /// Last epoch's demand-based PRB utilization for `cell` in [0, 1]: the
  /// fraction of the TTI x PRB grid the members' offered traffic needs at
  /// their channel quality (1.0 = saturated; full-buffer members pin it).
  double prb_utilization(std::size_t cell) const { return util_[cell]; }
  /// Bits delivered to `ue` by the last epoch's serve phase (per-epoch
  /// scratch, not cumulative); meaningless before the first epoch.
  double ue_served_bits(std::size_t ue) const { return ue_served_bits_[ue]; }

  // Cumulative counters (monotonic across epochs; persisted).
  std::uint64_t total_attaches() const { return totals_.attaches; }
  std::uint64_t total_ho_attempts() const { return totals_.attempts; }
  std::uint64_t total_handovers() const { return totals_.successes; }
  std::uint64_t total_pingpongs() const { return totals_.pingpongs; }
  std::uint64_t total_steering_steps() const { return totals_.steer_steps; }
  std::uint64_t total_placement_refreshes() const { return totals_.refreshes; }

  /// Bounded in-memory handover log (not persisted; the slab state that
  /// drives future decisions — last_cell/last_ho_epoch — is).
  static constexpr std::size_t kMaxHandoverLog = 1u << 16;
  const std::vector<HandoverEvent>& handover_log() const { return ho_log_; }
  std::uint64_t handover_log_dropped() const { return totals_.ho_log_dropped; }

  /// Emit the dynamic state (positions, attachments, A3/TTT state, CIOs,
  /// utilizations, per-UE load, counters) into `sink`, which is a
  /// geo::BinWriter, a geo::Fnv1a or a geo::ByteCount: seed, cell and UE
  /// populations and the epoch, then each slab as a u64 count and its raw
  /// elements, then the counters.
  template <class Sink>
  void write_state(Sink& sink) const;

  /// FNV-1a over the write_state() bytes: two fleets resume bit-identically
  /// iff their hashes match.
  std::uint64_t state_hash() const;

  /// write_state() as one CRC-guarded geo::binio envelope (magic "SKYF",
  /// version 2).
  void save(std::ostream& os) const;

  /// Restore into a fleet constructed with the same config and the same
  /// add_cell/add_ue sequence. Throws geo::BinTruncatedError /
  /// BinCorruptError / BinVersionError on a bad stream (version 1 and
  /// trailing bytes included) and geo::StateMismatchError when the seed or
  /// populations disagree. Strong guarantee: on any throw the fleet is
  /// unchanged.
  void restore(std::istream& is);

  /// Read what write_state() wrote, from the reader's position. The fleet
  /// state must end the payload. Every check runs before the first member
  /// changes, with restore()'s errors and guarantee.
  void read_state(geo::BinReader& r);

 private:
  void phase_measure(double fault_t);
  void phase_decide();
  void phase_apply(FleetEpochReport& report);
  void phase_sinr();
  void phase_serve(FleetEpochReport& report);
  void phase_steer(FleetEpochReport& report);

  /// The persisted slabs, in stream order.
  template <class Self>
  static auto slabs(Self& self) {
    return std::tie(self.cell_pos_, self.cio_db_, self.util_, self.ue_pos_, self.serving_,
                    self.a3_target_, self.a3_count_, self.last_cell_, self.last_ho_epoch_,
                    self.ue_load_bits_);
  }

  FleetConfig config_;
  const rf::ChannelModel* channel_;
  int epoch_ = 0;

  // Cell slabs.
  std::vector<geo::Vec3> cell_pos_;
  std::vector<double> cio_db_;
  std::vector<double> util_;    ///< last epoch's demand-based PRB utilization
  std::vector<double> sag_db_;  ///< scratch: this epoch's per-cell fault sag

  // UE slabs (persistent).
  std::vector<geo::Vec3> ue_pos_;
  std::vector<lte::TrafficSpec> ue_spec_;
  std::vector<std::int32_t> serving_;
  std::vector<std::int32_t> a3_target_;   ///< TTT candidate, -1 when idle
  std::vector<std::int32_t> a3_count_;    ///< consecutive epochs condition held
  std::vector<std::int32_t> last_cell_;   ///< previous serving cell, -1 never
  std::vector<std::int32_t> last_ho_epoch_;
  std::vector<double> ue_load_bits_;      ///< served+offered bits, last epoch

  // UE slabs (scratch, rebuilt every epoch; excluded from hash/save).
  std::vector<double> rsrp_dbm_;          ///< n_ues x n_cells, UE-major
  std::vector<double> sinr_db_;
  std::vector<double> ue_served_bits_;    ///< last serve phase, per UE
  std::vector<std::uint8_t> ho_action_;   ///< 0 none, 1 in-TTT, 2 execute, 3 attach

  // Serve-phase scratch.
  std::vector<std::uint32_t> members_;        ///< UE indices grouped by cell
  std::vector<std::uint32_t> cell_begin_;     ///< n_cells + 1 offsets into members_

  // Cumulative counters, persisted as one block (no padding bytes).
  struct Totals {
    std::uint64_t attaches = 0;
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t pingpongs = 0;
    std::uint64_t steer_steps = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t ho_log_dropped = 0;
    double served_bits = 0.0;
  };
  static_assert(sizeof(Totals) == 8 * sizeof(std::uint64_t));
  Totals totals_;

  std::vector<HandoverEvent> ho_log_;
};

}  // namespace skyran::fleet

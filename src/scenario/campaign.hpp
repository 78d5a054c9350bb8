// scenario::Campaign — a day-in-the-life campaign driver composing the
// existing layers over a simulated 24 h horizon (ROADMAP item 5):
//
//   traffic   the diurnal curve modulates every UE's base rate hour by hour;
//             FlashCrowd scripts (stadium fill/drain, outage evacuation)
//             boost participants' demand while engaged
//   mobility  a commuter fraction of the population follows
//             mobility::commuter L-paths between residential and office
//             clusters; the rest sit at counter-random street corners;
//             crowds override positions while engaged
//   fleet     one fleet::Fleet runs epochs_per_hour epochs per hour with
//             inter-cell SINR, A3 handover and CIO steering
//   weather   WeatherFront rows compile into kSrsSnrSag windows on the
//             fleet's FaultPlan (fleet time base: t = epoch - 1)
//   logistics uav::Battery per cell; a cell tripping its reserve threshold
//             ferries to the depot for swap_epochs epochs (its RSRP
//             collapses, A3 drains its UEs to neighbors), returns with a
//             fresh pack
//
// Determinism contract: every hour input (specs, positions, weather) is a
// pure function of (config, hour, epoch) — counter-based streams, no wall
// clock — so the same (seed, config) campaign produces a byte-identical
// CampaignReport serially and on any worker count, and a campaign restored
// from a checkpoint at any hour boundary finishes bit-identically to the
// uninterrupted run (the only sequential state is battery/swap logistics
// plus the fleet, and both are persisted). Enforced by tests/test_scenario
// and the kill.campaign_mini.hour_tick cases of the kill-and-resume suite.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "fleet/fleet.hpp"
#include "geo/vec.hpp"
#include "mobility/commuter.hpp"
#include "rf/channel.hpp"
#include "scenario/shapes.hpp"
#include "uav/battery.hpp"

namespace skyran::scenario {

/// One weather front: a wide-area SRS SNR sag over [start_h, end_h). Fronts
/// compile into the fleet FaultPlan at construction; they are config, not
/// state.
struct WeatherFront {
  double start_h = 0.0;
  double end_h = 0.0;
  double snr_sag_db = 6.0;
};

/// Battery swap logistics. A cell whose pack falls below a quarter of its
/// capacity ferries to `position` (off the service area), sits out
/// swap_epochs epochs, and returns to station with a full pack.
struct DepotConfig {
  uav::BatteryParams battery{};
  int swap_epochs = 2;
  geo::Vec3 position{-150.0, -150.0, 20.0};
};

struct CampaignConfig {
  std::uint64_t seed = 1;
  int hours = 24;
  int epochs_per_hour = 6;
  std::size_t n_ues = 1000;
  /// UAV cells on a cells_per_side x cells_per_side grid over the 1200 m
  /// square service area.
  int cells_per_side = 3;
  /// Per-UE mean demand at the diurnal peak; individual UEs draw a base
  /// rate in [0.5, 1.5) of this.
  double base_rate_bps = 4e5;
  /// Template for the fleet; seed/threads/faults and the plane seed are
  /// filled in by the campaign (weather owns the appended fault windows).
  fleet::FleetConfig fleet{};
  std::vector<WeatherFront> weather;
  std::vector<FlashCrowd> crowds;
  DepotConfig depot{};
  /// Worker lanes (0 = inherit process-wide resolution). Resume-neutral:
  /// excluded from the config fingerprint.
  int threads = 0;
};

/// Per-hour outcome row. Every field is a deterministic function of
/// (config, hour) — the unit of the campaign digest.
struct HourReport {
  int hour = 0;
  double diurnal_level = 0.0;
  double offered_bits = 0.0;
  double served_bits = 0.0;
  /// Fraction of (UE, epoch) samples attached with SINR >= threshold.
  double availability = 0.0;
  double mean_sinr_db = 0.0;
  /// Per-UE delivered throughput percentiles over the hour (bps).
  double p5_tput_bps = 0.0;
  double p50_tput_bps = 0.0;
  double p95_tput_bps = 0.0;
  std::uint64_t handovers = 0;
  std::uint64_t pingpongs = 0;
  std::uint64_t steering_steps = 0;
  std::uint64_t swaps_started = 0;
  std::uint64_t depot_epochs = 0;  ///< cell-epochs spent off station
  double energy_wh = 0.0;          ///< hover + ferry energy this hour
};

/// Whole-campaign rollup plus the per-hour detail rows.
struct CampaignReport {
  std::uint64_t seed = 0;
  int hours = 0;
  int epochs = 0;
  std::size_t n_ues = 0;
  std::size_t n_cells = 0;
  double offered_bits = 0.0;
  double served_bits = 0.0;
  double availability = 0.0;      ///< campaign-wide served-sample fraction
  double min_hour_availability = 0.0;
  double energy_wh = 0.0;
  /// Wh per delivered Gbit (0 when nothing was served).
  double energy_wh_per_gbit = 0.0;
  std::uint64_t handovers = 0;
  std::uint64_t pingpongs = 0;
  std::uint64_t steering_steps = 0;
  std::uint64_t swaps = 0;
  std::uint64_t depot_epochs = 0;
  std::vector<HourReport> by_hour;
};

/// Fingerprint of the resume-relevant CampaignConfig fields (everything
/// except threads). restore() under a different fingerprint throws
/// geo::StateMismatchError.
std::uint64_t config_digest(const CampaignConfig& config);

/// Order-sensitive FNV-1a over every field of one hour row (double bit
/// patterns, exact integers).
std::uint64_t hour_digest(const HourReport& hour);

/// Digest over the whole report including every hour row — the golden-replay
/// currency: two campaigns digest equal iff their reports are bit-identical.
std::uint64_t campaign_digest(const CampaignReport& report);

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  /// Run the next hour: derive specs and positions for each epoch, advance
  /// battery/swap logistics, run epochs_per_hour fleet epochs, append the
  /// HourReport. Ends at the sim::crash_point("hour.tick") kill point.
  /// Throws ContractViolation once all config.hours have run.
  HourReport run_hour();

  /// Run all remaining hours (no checkpointing) and return the report.
  CampaignReport report() const;
  CampaignReport run();

  int hours_run() const { return hour_; }
  bool done() const { return hour_ >= config_.hours; }
  const CampaignConfig& config() const { return config_; }
  /// The commuter population: the service area and the campaign's seed.
  const mobility::CommuterPlan& commute_plan() const { return commute_; }
  const fleet::Fleet& fleet() const { return fleet_; }
  std::size_t cell_count() const { return fleet_.cell_count(); }
  bool cell_at_depot(std::size_t cell) const { return swap_left_[cell] > 0; }
  double cell_battery_fraction(std::size_t cell) const {
    return battery_[cell].remaining_fraction();
  }

  /// FNV-1a over write_state(), then the fleet's state_hash(): two
  /// campaigns resume bit-identically iff hashes match.
  std::uint64_t state_hash() const;

  /// One CRC-guarded geo::binio envelope (magic "SKYD", version 2): config
  /// fingerprint and cell count, then write_state(), then the fleet's
  /// write_state() inline.
  void save(std::ostream& os) const;

  /// Restore into a campaign constructed with an identical config
  /// (fingerprint-checked). Throws geo::BinFormatError on bad bytes
  /// (version 1 and out-of-range fields included) and
  /// geo::StateMismatchError when the fingerprint or cell count differs.
  /// Strong exception safety: on any throw *this is unchanged, so
  /// sim::GenerationStore::restore_latest can fall back to an older
  /// generation.
  void restore(std::istream& is);

 private:
  /// The persisted campaign state, into a geo::BinWriter, a geo::Fnv1a or
  /// a geo::ByteCount: hour counter, per-cell logistics (Wh, swap epochs
  /// left), totals and one row per hour run.
  template <class Sink>
  void write_state(Sink& sink) const;

  fleet::Fleet make_fleet() const;
  /// crowd_engagement of every configured crowd at hour of day `hod`.
  std::vector<double> crowd_engagements(double hod) const;
  /// UE position at hour of day `hod` in [0, 24), given the crowds'
  /// engagements at that hour.
  geo::Vec3 ue_position_at(std::size_t ue, double hod, std::span<const double> engagement) const;
  void step_logistics(double epoch_s, HourReport& hr);

  CampaignConfig config_;
  mobility::CommuterPlan commute_;
  rf::FsplChannel channel_;
  fleet::Fleet fleet_;

  // Static per-UE derivations (pure functions of config; rebuilt, not
  // persisted).
  std::vector<lte::TrafficSpec> base_spec_;
  std::vector<double> base_rate_bps_;
  std::vector<std::uint8_t> commuter_;
  std::vector<geo::Vec2> static_pos_;
  std::vector<geo::Vec3> station_;  ///< per-cell hover station

  // Sequential campaign state (persisted).
  int hour_ = 0;
  std::vector<uav::Battery> battery_;
  std::vector<std::int32_t> swap_left_;  ///< swap epochs remaining; 0 = on station
  double energy_wh_ = 0.0;
  std::uint64_t swaps_ = 0;
  std::uint64_t depot_epochs_ = 0;
  std::uint64_t served_samples_ = 0;  ///< (UE, epoch) samples above threshold
  std::uint64_t total_samples_ = 0;
  std::vector<HourReport> by_hour_;

  // Hour scratch (excluded from hash/save): per-UE served bits, turned into
  // throughput for the hour's percentiles.
  std::vector<double> hour_ue_bits_;
};

/// A ready-made 24 h reference day: two weather fronts (morning drizzle,
/// evening storm), an evening stadium event in the north-east, an afternoon
/// evacuation near the center — the configuration used by bench/campaign_day
/// and examples/campaign_mini (which shrinks hours/population).
CampaignConfig example_day_config(std::uint64_t seed, std::size_t n_ues, int cells_per_side);

}  // namespace skyran::scenario

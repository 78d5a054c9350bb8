#include "core/skyran.hpp"

#include <cmath>
#include <numbers>

#include <random>
#include <sstream>

#include "core/snapshot.hpp"
#include "core/thread_pool.hpp"
#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "obs/obs.hpp"
#include "sim/crash_point.hpp"
#include "sim/measurement.hpp"

namespace skyran::core {

namespace {

using uav::kDefaultCruiseMps;

// Optimal-altitude search (Step 5): descend from the start altitude in
// fixed steps, never below the floor.
constexpr double kStartAltitudeM = 120.0;
constexpr double kMinAltitudeM = 40.0;
constexpr double kAltitudeStepM = 10.0;

}  // namespace

SkyRan::SkyRan(sim::World& world, SkyRanConfig config, std::uint64_t seed)
    : world_(world),
      config_(config),
      seed_(seed),
      rng_(seed),
      fspl_(world.channel().frequency_hz()),
      store_(config.reuse_radius_m),
      history_index_(std::max(config.reuse_radius_m, 1e-9)),
      position_(world.area().center()),
      battery_(config.battery) {
  expects(config.epoch_drop_threshold > 0.0 && config.epoch_drop_threshold < 1.0,
          "SkyRan: epoch trigger threshold must be in (0,1)");
  expects(config.rem_cell_m > 0.0, "SkyRan: REM cell size must be positive");
  expects(config.threads >= 0, "SkyRan: thread count must be >= 0 (0 = auto)");
  rem::validate(config.idw);
  // config.threads is applied per entry point via ScopedWorkers (see
  // run_epoch) rather than set_global_workers: a constructor mutating the
  // process-wide count would race with parallel work in flight elsewhere and
  // let instances override each other.
}

rem::TrajectoryHistory& SkyRan::history_for(geo::Vec2 ue_position) {
  // first_within returns the earliest-inserted entry within R, matching the
  // historical linear scan over history_.
  if (const std::optional<std::size_t> hit =
          history_index_.first_within(ue_position, config_.reuse_radius_m))
    return history_[*hit].trajectories;
  history_index_.insert(ue_position, history_.size());
  history_.push_back({ue_position, {}});
  return history_.back().trajectories;
}

const rem::TrajectoryHistory* SkyRan::find_history(geo::Vec2 ue_position) const {
  const std::optional<std::size_t> hit =
      history_index_.first_within(ue_position, config_.reuse_radius_m);
  return hit ? &history_[*hit].trajectories : nullptr;
}

const rem::RemBank& SkyRan::rem_bank() const {
  expects(bank_.has_value(), "SkyRan::rem_bank: no epoch has run yet");
  return *bank_;
}

std::vector<geo::Vec2> SkyRan::localize_ues(EpochReport& report) {
  const std::vector<geo::Vec3>& truth = world_.ue_positions();
  std::vector<geo::Vec2> estimates;
  estimates.reserve(truth.size());

  switch (config_.localization_mode) {
    case LocalizationMode::kPhy: {
      localization::UeLocalizer localizer(world_.channel(), world_.budget(),
                                          config_.localizer);
      const localization::LocalizationRun run =
          localizer.localize(world_.area().inflated(-6.0).clamp(position_), truth, rng_(),
                             faults_.active() ? &faults_ : nullptr);
      report.localization_flight_m = run.flight_length_m;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        if (run.estimates[i].valid) {
          estimates.push_back(run.estimates[i].position);
          continue;
        }
        // A UE whose SRS could not be decoded (loss/sag/outage or too few
        // decodable symbols) falls back to the last known position family.
        // Under an active fault plan that is the previous epoch's estimate
        // when one exists — which keeps the REM store's positional reuse
        // working through an outage — else (and always on the zero-fault
        // path, which must stay bit-identical to the legacy pipeline) the
        // area center as a conservative guess.
        epoch_degraded_ = true;
        if (faults_.active() && i < last_estimates_.size()) {
          SKYRAN_COUNTER_INC("fault.loc.fallback_reuse");
          estimates.push_back(last_estimates_[i]);
        } else {
          SKYRAN_COUNTER_INC("fault.loc.fallback_center");
          estimates.push_back(world_.area().center());
        }
      }
      break;
    }
    case LocalizationMode::kPerfect: {
      for (const geo::Vec3& p : truth) estimates.push_back(p.xy());
      break;
    }
    case LocalizationMode::kGaussianError: {
      // Mean radial error e for a 2-D Gaussian needs per-axis sigma
      // e / sqrt(pi/2).
      const double sigma =
          config_.injected_error_m / std::sqrt(std::numbers::pi / 2.0);
      // injected_error_m defaults to 0, and normal_distribution(0, σ)
      // requires σ > 0: scale a standard normal instead.
      std::normal_distribution<double> unit;
      for (const geo::Vec3& p : truth)
        estimates.push_back(world_.area().clamp(
            p.xy() + geo::Vec2{sigma * unit(rng_), sigma * unit(rng_)}));
      break;
    }
  }
  return estimates;
}

double SkyRan::ensure_altitude(const std::vector<geo::Vec2>& ue_estimates,
                               EpochReport& report) {
  if (altitude_known_) return altitude_;
  // Step 5: hover above the estimated centroid at 120 m and descend while
  // path loss keeps dropping.
  geo::Vec2 centroid{};
  for (geo::Vec2 p : ue_estimates) centroid += p;
  centroid = centroid / static_cast<double>(ue_estimates.size());
  centroid = world_.area().clamp(centroid);

  std::vector<geo::Vec3> ue3;
  ue3.reserve(ue_estimates.size());
  for (geo::Vec2 p : ue_estimates)
    ue3.emplace_back(p, world_.terrain().ground_height(p) + 1.5);

  const rem::AltitudeSearchResult found = rem::find_optimal_altitude(
      world_.channel(), centroid, ue3, kStartAltitudeM, kMinAltitudeM, kAltitudeStepM);
  altitude_ = found.altitude_m;
  altitude_known_ = true;
  report.altitude_flight_m =
      (kStartAltitudeM - altitude_) + found.probes * 2.0;  // descent + hover settling
  position_ = centroid;
  return altitude_;
}

void SkyRan::apply_battery_sag(double t) {
  const double target = faults_.battery_sag_fraction(t);
  if (target <= battery_sag_applied_) return;
  battery_.deplete_wh((target - battery_sag_applied_) * battery_.capacity_wh());
  battery_sag_applied_ = target;
  epoch_degraded_ = true;
  SKYRAN_COUNTER_INC("fault.battery.sag_events");
}

EpochReport SkyRan::run_epoch() {
  expects(!world_.ue_positions().empty(), "SkyRan::run_epoch: no UEs in the world");
  const ScopedWorkers workers(config_.threads);  // no-op when threads == 0 (auto)
  EpochReport report;
  report.epoch = ++epoch_;
  obs::set_current_epoch(report.epoch);
  SKYRAN_TRACE_SPAN("epoch.run");
  SKYRAN_COUNTER_INC("epoch.runs");

  // Fresh fault state: the same plan replays deterministically per epoch.
  faults_ = sim::FaultInjector(config_.faults, static_cast<std::uint64_t>(epoch_));
  battery_sag_applied_ = 0.0;
  epoch_degraded_ = false;
  sim::FaultInjector* const faults = faults_.active() ? &faults_ : nullptr;
  apply_battery_sag(0.0);

  // Steps 1-4: localize the UEs.
  {
    SKYRAN_TRACE_SPAN("epoch.localize");
    report.estimated_ue_positions = localize_ues(report);
  }
  sim::crash_point("epoch.localize");

  // Step 5: operating altitude (first epoch only, Sec 3.3.1).
  const double altitude = [&] {
    SKYRAN_TRACE_SPAN("epoch.altitude");
    return ensure_altitude(report.estimated_ue_positions, report);
  }();
  report.altitude_m = altitude;

  // The localization and altitude-search flights have been flown by this
  // point, so their energy leaves the battery now — before the measurement
  // loop's reserve check reads the remaining charge. (Draining them after
  // the loop let the check see a charge excluding this epoch's own flights,
  // and the altitude descent was never drained at all.)
  battery_.drain((report.localization_flight_m + report.altitude_flight_m) / kDefaultCruiseMps,
                 kDefaultCruiseMps);
  // Epoch flight-time cursor: where measurement tours land on the fault
  // plan's time axis.
  double epoch_time_s =
      (report.localization_flight_m + report.altitude_flight_m) / kDefaultCruiseMps;

  // REM setup with positional reuse (Sec 3.5): one shared-geometry bank for
  // the whole epoch instead of independent per-UE grids.
  SKYRAN_TRACE_SPAN("epoch.measure_and_place");
  bank_.emplace(world_.area(), config_.rem_cell_m, altitude);
  report.reused_rem.clear();
  std::vector<rem::TrajectoryHistory> histories;
  for (geo::Vec2 est : report.estimated_ue_positions) {
    const geo::Vec3 ue{est, world_.terrain().ground_height(est) + 1.5};
    const bool reused = store_.find_near(est) != nullptr;
    report.reused_rem.push_back(reused);
    if (reused)
      SKYRAN_COUNTER_INC("epoch.rem_cache.hit");
    else
      SKYRAN_COUNTER_INC("epoch.rem_cache.miss");
    const std::size_t ue_idx = bank_->add_ue(ue);
    store_.seed_bank_ue(*bank_, ue_idx, fspl_, world_.budget(), config_.idw);
    const rem::TrajectoryHistory* h = find_history(est);
    histories.push_back(h != nullptr ? *h : rem::TrajectoryHistory{});
  }

  // Steps 6-7: plan and fly measurement tours until the epoch budget is
  // spent. Each round replans from the previous tour's endpoint with that
  // tour added to the history, so successive rounds explore new regions
  // (the info-gain term steers them away from what was just flown).
  const double budget = config_.measurement_budget_m;
  double remaining = budget > 0.0 ? budget : 0.0;
  geo::Vec2 tour_start = world_.area().clamp(position_);
  std::vector<geo::Path> flown;
  bool first_round = true;
  while (first_round || remaining > std::max(60.0, 0.1 * budget)) {
    apply_battery_sag(epoch_time_s);
    if (battery_.remaining_fraction() <= config_.battery_reserve_fraction) {
      SKYRAN_COUNTER_INC("epoch.measurement.battery_stops");
      if (budget > 0.0 && remaining > std::max(60.0, 0.1 * budget)) {
        // Budget left unspent: the epoch serves from whatever REM content
        // the rounds so far deposited (possibly background only).
        epoch_degraded_ = true;
      }
      break;
    }
    SKYRAN_TRACE_SPAN("epoch.measure_round");
    const std::uint64_t plan_seed = rng_();
    // Refresh: UEs the previous round deposited into are re-rastered, the
    // rest are served from the cache (every UE on the first round).
    bank_->estimate_all(config_.idw);
    const rem::PlannedTrajectory plan = rem::plan_measurement_trajectory(
        *bank_, histories, tour_start, budget > 0.0 ? remaining : 0.0, plan_seed,
        config_.planner);
    if (plan.cost_m < 1.0) break;
    if (first_round) {
      report.planned_k = plan.k;
      report.info_to_cost = plan.info_to_cost;
    }
    SKYRAN_COUNTER_INC("epoch.measurement.rounds");

    uav::FlightPlan flight = uav::FlightPlan::at_altitude(plan.path, altitude);
    // Mid-flight abort (degraded path): a tour the remaining charge cannot
    // finish is flown only to where the energy runs out. Whatever the
    // partial tour deposited stays in the bank — a short tour's REM beats
    // an unflown one.
    const double max_flight_s =
        battery_.remaining_wh() * 3600.0 / battery_.power_w(kDefaultCruiseMps);
    const bool aborted = flight.duration_s() > max_flight_s;
    if (aborted) {
      flight = uav::truncated(flight, max_flight_s * kDefaultCruiseMps);
      epoch_degraded_ = true;
      SKYRAN_COUNTER_INC("fault.battery.mid_flight_aborts");
    }
    sim::run_measurement_flight(world_, flight, *bank_, config_.measurement, rng_, faults,
                                epoch_time_s);
    battery_.drain(flight.duration_s(), kDefaultCruiseMps);
    epoch_time_s += flight.duration_s();
    ++report.measurement_rounds;

    const geo::Path track = aborted ? flight.ground_track() : plan.path;
    report.measurement_flight_m += aborted ? flight.length_m() : plan.cost_m;
    remaining -= aborted ? flight.length_m() : plan.cost_m;
    tour_start = track.points().back();
    for (rem::TrajectoryHistory& h : histories) h.push_back(track);
    flown.push_back(track);
    if (aborted) break;       // out of energy: no further rounds this epoch
    if (budget <= 0.0) break;  // unconstrained mode: single best tour
    first_round = false;
  }

  sim::crash_point("epoch.estimate");

  // Record the flown tours into each UE's history and refresh the store.
  for (std::size_t i = 0; i < report.estimated_ue_positions.size(); ++i) {
    rem::TrajectoryHistory& h = history_for(report.estimated_ue_positions[i]);
    h.insert(h.end(), flown.begin(), flown.end());
    store_.put(*bank_, i);
  }

  // Placement (Sec 3.4), restricted to cells the UAV can hover in. The
  // final refresh folds in the last round's deposits; placement then reads
  // the cached slabs directly as views (no per-UE copies).
  SKYRAN_TRACE_SPAN("epoch.placement");
  bank_->estimate_all(config_.idw);
  const std::vector<geo::FieldView<const double>> estimates = bank_->estimate_views();
  const rem::Placement placement = rem::choose_placement_feasible(
      estimates, world_.terrain(), altitude, config_.objective);
  const double reposition_m = position_.dist(placement.position);
  position_ = placement.position;
  report.position = position_;
  report.predicted_objective_snr_db = placement.objective_snr_db;

  report.total_flight_m = report.localization_flight_m + report.altitude_flight_m +
                          report.measurement_flight_m + reposition_m;
  report.flight_time_s = report.total_flight_m / kDefaultCruiseMps;
  total_flight_m_ += report.total_flight_m;
  // Localization and altitude flights were drained before the measurement
  // loop; only the reposition hop remains.
  battery_.drain(reposition_m / kDefaultCruiseMps, kDefaultCruiseMps);

  throughput_at_placement_bps_ = current_mean_throughput_bps();
  report.served_mean_throughput_bps = throughput_at_placement_bps_;
  report.degraded = report.degraded || epoch_degraded_;
  last_estimates_ = report.estimated_ue_positions;
  epoch_time_s += reposition_m / kDefaultCruiseMps;
  sim::crash_point("epoch.place");

  // Service phase: carry per-TTI MAC-level traffic from the placement so the
  // epoch is scored under load, not just on SNR. The plane's seed derives
  // from the construction seed and epoch number only — never from rng_ — so
  // every pre-existing report field stays byte-identical to builds without a
  // service phase (and under the empty-FaultPlan no-op contract).
  if (config_.service.ttis > 0) {
    SKYRAN_TRACE_SPAN("epoch.serve");
    lte::TrafficPlaneConfig plane_config = config_.service.plane;
    plane_config.carrier = world_.carrier();
    plane_config.seed = seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(epoch_));
    lte::TrafficPlane plane(plane_config);
    const geo::Vec3 uav{position_, altitude};
    const std::vector<geo::Vec3>& ues = world_.ue_positions();
    for (std::size_t i = 0; i < ues.size(); ++i)
      plane.add_ue(static_cast<std::uint32_t>(61 + i), world_.snr_db(uav, ues[i]),
                   config_.service.ue_traffic);
    // An SRS SNR-sag window still open when service starts sags the true
    // channel below the CQI reports the scheduler works from.
    if (faults != nullptr) {
      const double sag_db = faults->srs_snr_sag_db(epoch_time_s);
      for (std::size_t i = 0; i < plane.ue_count(); ++i) plane.set_snr_offset_db(i, -sag_db);
    }
    plane.run_ttis(config_.service.ttis);
    report.traffic = plane.report();
    SKYRAN_GAUGE_SET("traffic.throughput_bps", report.traffic.aggregate_throughput_bps);
    SKYRAN_GAUGE_SET("traffic.fairness_jain", report.traffic.fairness_jain);
    SKYRAN_HISTOGRAM_OBSERVE("traffic.p50_throughput_bps", report.traffic.p50_throughput_bps);
    SKYRAN_HISTOGRAM_OBSERVE("traffic.p99_delay_ms", report.traffic.p99_delay_ms);
  }
  sim::crash_point("epoch.serve");

  SKYRAN_HISTOGRAM_OBSERVE("epoch.total_flight_m", report.total_flight_m);
  SKYRAN_HISTOGRAM_OBSERVE("epoch.measurement_flight_m", report.measurement_flight_m);
  SKYRAN_HISTOGRAM_OBSERVE("epoch.info_to_cost", report.info_to_cost);
  SKYRAN_HISTOGRAM_OBSERVE("epoch.planned_k", report.planned_k);
  SKYRAN_GAUGE_SET("epoch.battery_fraction", battery_.remaining_fraction());
  SKYRAN_GAUGE_SET("epoch.altitude_m", report.altitude_m);
  SKYRAN_GAUGE_SET("epoch.degraded", report.degraded ? 1.0 : 0.0);
  return report;
}

double SkyRan::current_mean_throughput_bps() const {
  return world_.mean_throughput_bps(geo::Vec3{position_, altitude_});
}

double SkyRan::served_performance_ratio() const {
  if (throughput_at_placement_bps_ <= 0.0) return 1.0;
  return current_mean_throughput_bps() / throughput_at_placement_bps_;
}

Snapshot SkyRan::snapshot() const {
  SKYRAN_TRACE_SPAN("ckpt.capture");
  Snapshot s;
  s.seed = seed_;
  s.config_fingerprint = config_digest(config_);
  s.epoch = epoch_;
  s.position = position_;
  s.altitude_m = altitude_;
  s.altitude_known = altitude_known_;
  s.total_flight_m = total_flight_m_;
  s.throughput_at_placement_bps = throughput_at_placement_bps_;
  s.battery_remaining_wh = battery_.remaining_wh();
  std::ostringstream rng_bytes;
  rng_bytes << rng_;  // standard text round-trip is bit-exact
  s.rng_state = rng_bytes.str();
  s.last_estimates = last_estimates_;
  s.ue_positions = world_.ue_positions();
  s.store = store_;
  s.history.reserve(history_.size());
  for (const HistoryEntry& e : history_) s.history.push_back({e.position, e.trajectories});
  return s;
}

void SkyRan::restore(const Snapshot& s) {
  SKYRAN_TRACE_SPAN("ckpt.apply");
  if (s.seed != seed_)
    throw geo::StateMismatchError("SkyRan::restore: snapshot seed " + std::to_string(s.seed) +
                                  " != session seed " + std::to_string(seed_));
  if (s.config_fingerprint != config_digest(config_))
    throw geo::StateMismatchError(
        "SkyRan::restore: snapshot was taken under a different resume-relevant config");
  // Everything that can throw runs before the first member changes, so a
  // rejected snapshot leaves the session as it was.
  geo::Mt19937_64 rng;
  {
    std::istringstream rng_bytes(s.rng_state);
    rng_bytes >> rng;
    if (rng_bytes.fail()) throw geo::BinCorruptError("SkyRan::restore: bad RNG state");
  }
  if (!(s.battery_remaining_wh >= 0.0))
    throw geo::BinCorruptError("SkyRan::restore: battery energy must be >= 0");
  uav::Battery battery(config_.battery);
  battery.restore_remaining_wh(s.battery_remaining_wh);

  epoch_ = s.epoch;
  position_ = s.position;
  altitude_ = s.altitude_m;
  altitude_known_ = s.altitude_known;
  total_flight_m_ = s.total_flight_m;
  throughput_at_placement_bps_ = s.throughput_at_placement_bps;
  battery_ = battery;
  rng_ = rng;
  last_estimates_ = s.last_estimates;
  world_.ue_positions() = s.ue_positions;
  store_ = s.store;
  history_.clear();
  history_index_ = geo::PointIndex(std::max(config_.reuse_radius_m, 1e-9));
  for (const Snapshot::HistoryEntry& e : s.history) {
    history_index_.insert(e.position, history_.size());
    history_.push_back({e.position, e.trajectories});
  }
  // Per-epoch scratch state is rebuilt at the top of the next run_epoch.
  bank_.reset();
  faults_ = sim::FaultInjector();
  battery_sag_applied_ = 0.0;
  epoch_degraded_ = false;
  SKYRAN_COUNTER_INC("ckpt.applied");
  SKYRAN_GAUGE_SET("ckpt.resume_epoch", static_cast<double>(epoch_));
}

bool SkyRan::should_trigger_epoch() const {
  const double ratio = served_performance_ratio();
  const bool fire = ratio < (1.0 - config_.epoch_drop_threshold);
  SKYRAN_COUNTER_INC("epoch.trigger.checks");
  if (fire) SKYRAN_COUNTER_INC("epoch.trigger.fired");
  SKYRAN_GAUGE_SET("epoch.trigger.service_ratio", ratio);
  SKYRAN_HISTOGRAM_OBSERVE("epoch.trigger.service_ratio", ratio);
  return fire;
}

}  // namespace skyran::core

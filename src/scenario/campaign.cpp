#include "scenario/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "core/thread_pool.hpp"
#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "geo/stats.hpp"
#include "lte/sampling.hpp"
#include "obs/obs.hpp"
#include "sim/config_hash.hpp"
#include "sim/crash_point.hpp"

namespace skyran::scenario {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'D'};
constexpr std::uint32_t kVersion = 2;

using geo::u01;

constexpr std::uint64_t kStreamCommuter = 0x301;
constexpr std::uint64_t kStreamStaticX = 0x302;
constexpr std::uint64_t kStreamStaticY = 0x303;
constexpr std::uint64_t kStreamModel = 0x304;
constexpr std::uint64_t kStreamRate = 0x305;
constexpr std::uint64_t kStreamBattery = 0x306;

constexpr double kAreaM = 1200.0;  ///< side of the square service area
constexpr double kCellAltitudeM = 60.0;
/// A (UE, epoch) sample counts as served when attached with SINR at or
/// above this.
constexpr double kMinServiceSinrDb = -3.0;
constexpr double kCommuterFraction = 0.6;  ///< the rest of the UEs are static
/// A cell ferries to the depot once its pack falls below this fraction.
constexpr double kReserveFraction = 0.25;
/// Ferry energy charged per swap round trip (depot side, not the pack).
constexpr double kSwapEnergyWh = 30.0;

double wrap24(double hour) { return hour - 24.0 * std::floor(hour / 24.0); }

// FNV-1a basis of the campaign digests and Campaign::state_hash: the
// standard offset basis with its last decimal digit dropped. campaign_day's
// pinned reference digest depends on it, so it stays.
constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

template <class Sink>
void write_hour(Sink& w, const HourReport& hr) {
  w.pod(hr.hour);
  w.pod(hr.diurnal_level);
  w.pod(hr.offered_bits);
  w.pod(hr.served_bits);
  w.pod(hr.availability);
  w.pod(hr.mean_sinr_db);
  w.pod(hr.p5_tput_bps);
  w.pod(hr.p50_tput_bps);
  w.pod(hr.p95_tput_bps);
  w.pod(hr.handovers);
  w.pod(hr.pingpongs);
  w.pod(hr.steering_steps);
  w.pod(hr.swaps_started);
  w.pod(hr.depot_epochs);
  w.pod(hr.energy_wh);
}

HourReport read_hour(geo::BinReader& r) {
  HourReport hr;
  hr.hour = r.pod<int>();
  hr.diurnal_level = r.pod<double>();
  hr.offered_bits = r.pod<double>();
  hr.served_bits = r.pod<double>();
  hr.availability = r.pod<double>();
  hr.mean_sinr_db = r.pod<double>();
  hr.p5_tput_bps = r.pod<double>();
  hr.p50_tput_bps = r.pod<double>();
  hr.p95_tput_bps = r.pod<double>();
  hr.handovers = r.pod<std::uint64_t>();
  hr.pingpongs = r.pod<std::uint64_t>();
  hr.steering_steps = r.pod<std::uint64_t>();
  hr.swaps_started = r.pod<std::uint64_t>();
  hr.depot_epochs = r.pod<std::uint64_t>();
  hr.energy_wh = r.pod<double>();
  return hr;
}

}  // namespace

std::uint64_t config_digest(const CampaignConfig& c) {
  geo::Fnv1a h(kDigestBasis);
  h.pod(c.seed);
  h.pod(c.hours);
  h.pod(c.epochs_per_hour);
  h.pod(static_cast<std::uint64_t>(c.n_ues));
  h.pod(c.cells_per_side);
  h.pod(c.base_rate_bps);
  // Fleet template (resume-relevant radio/mobility knobs; make_fleet sets
  // its seed and the fleet its plane seeds; weather windows are appended to
  // the fault template and hashed below).
  sim::hash_config(h, c.fleet.plane);
  sim::hash_config(h, c.fleet.plane.carrier);
  sim::hash_config(h, c.fleet.faults);
  h.pod(c.fleet.ttis_per_epoch);
  h.pod(c.fleet.a3.offset_db);
  h.pod(c.fleet.a3.hysteresis_db);
  h.pod(c.fleet.a3.time_to_trigger_epochs);
  h.pod(c.fleet.a3.pingpong_window_epochs);
  h.pod(c.fleet.steering.enabled);
  h.pod(c.fleet.steering.period_epochs);
  h.pod(c.fleet.steering.step_db);
  h.pod(c.fleet.steering.max_cio_db);
  h.pod(c.fleet.steering.util_deadband);
  h.pod(static_cast<std::uint64_t>(c.weather.size()));
  for (const WeatherFront& w : c.weather) {
    h.pod(w.start_h);
    h.pod(w.end_h);
    h.pod(w.snr_sag_db);
  }
  h.pod(static_cast<std::uint64_t>(c.crowds.size()));
  for (const FlashCrowd& fc : c.crowds) {
    h.pod(fc.kind);
    h.pod(fc.start_h);
    h.pod(fc.fill_h);
    h.pod(fc.hold_h);
    h.pod(fc.drain_h);
    h.pod(fc.center.x);
    h.pod(fc.center.y);
    h.pod(fc.radius_m);
    h.pod(fc.ue_fraction);
    h.pod(fc.rate_boost);
  }
  h.pod(c.depot.battery.capacity_wh);
  h.pod(c.depot.battery.hover_power_w);
  h.pod(c.depot.battery.forward_power_w_per_mps);
  h.pod(c.depot.swap_epochs);
  h.pod(c.depot.position.x);
  h.pod(c.depot.position.y);
  h.pod(c.depot.position.z);
  // threads deliberately excluded: worker count is resume-neutral.
  return h.value();
}

std::uint64_t hour_digest(const HourReport& hour) {
  geo::Fnv1a h(kDigestBasis);
  write_hour(h, hour);
  return h.value();
}

std::uint64_t campaign_digest(const CampaignReport& report) {
  geo::Fnv1a h(kDigestBasis);
  h.pod(report.seed);
  h.pod(report.hours);
  h.pod(report.epochs);
  h.pod(static_cast<std::uint64_t>(report.n_ues));
  h.pod(static_cast<std::uint64_t>(report.n_cells));
  h.pod(report.offered_bits);
  h.pod(report.served_bits);
  h.pod(report.availability);
  h.pod(report.min_hour_availability);
  h.pod(report.energy_wh);
  h.pod(report.energy_wh_per_gbit);
  h.pod(report.handovers);
  h.pod(report.pingpongs);
  h.pod(report.steering_steps);
  h.pod(report.swaps);
  h.pod(report.depot_epochs);
  for (const HourReport& hr : report.by_hour) write_hour(h, hr);
  return h.value();
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)),
      commute_{.area_min = {0.0, 0.0}, .area_max = {kAreaM, kAreaM}, .seed = config_.seed},
      channel_(rf::kCarrierHz),
      fleet_(make_fleet()) {
  expects(config_.hours > 0, "Campaign: hours must be positive");
  expects(config_.epochs_per_hour > 0, "Campaign: epochs_per_hour must be positive");
  expects(config_.n_ues > 0, "Campaign: need at least one UE");
  expects(config_.cells_per_side > 0, "Campaign: need at least one cell");
  expects(config_.depot.swap_epochs > 0, "Campaign: swap must take at least one epoch");

  // Cell stations: a cells_per_side x cells_per_side grid of hover points.
  const int side = config_.cells_per_side;
  const double pitch = kAreaM / side;
  for (int gy = 0; gy < side; ++gy) {
    for (int gx = 0; gx < side; ++gx) {
      station_.push_back({(gx + 0.5) * pitch, (gy + 0.5) * pitch, kCellAltitudeM});
    }
  }
  // Staggered initial packs — comfortably above the reserve, spread out so
  // the fleet's swap trips don't all fire in the same epoch.
  battery_.reserve(station_.size());
  swap_left_.assign(station_.size(), 0);
  for (std::size_t c = 0; c < station_.size(); ++c) {
    uav::Battery b(config_.depot.battery);
    const double frac = std::min(
        1.0, kReserveFraction + 0.1 +
                 (0.9 - kReserveFraction) * u01(config_.seed, kStreamBattery, c));
    b.restore_remaining_wh(frac * b.capacity_wh());
    battery_.push_back(b);
  }

  // Per-UE base derivations: commuter membership, static corner, traffic
  // model mix (55% CBR / 25% bursty / 20% video) and a heterogeneous base
  // rate in [0.5, 1.5) of the configured mean.
  base_spec_.resize(config_.n_ues);
  base_rate_bps_.resize(config_.n_ues);
  commuter_.resize(config_.n_ues);
  static_pos_.resize(config_.n_ues);
  for (std::size_t i = 0; i < config_.n_ues; ++i) {
    commuter_[i] = u01(config_.seed, kStreamCommuter, i) < kCommuterFraction ? 1 : 0;
    static_pos_[i] = mobility::snap_to_street_grid(
        commute_, {u01(config_.seed, kStreamStaticX, i) * kAreaM,
                   u01(config_.seed, kStreamStaticY, i) * kAreaM});
    lte::TrafficSpec spec;
    const double m = u01(config_.seed, kStreamModel, i);
    spec.model = m < 0.55   ? lte::TrafficModel::kCbr
                 : m < 0.80 ? lte::TrafficModel::kBurstyOnOff
                            : lte::TrafficModel::kVideo;
    base_rate_bps_[i] = config_.base_rate_bps * (0.5 + u01(config_.seed, kStreamRate, i));
    spec.rate_bps = base_rate_bps_[i];
    base_spec_[i] = spec;
  }

  for (const geo::Vec3& s : station_) fleet_.add_cell(s);
  const std::vector<double> engagement = crowd_engagements(0.0);
  for (std::size_t i = 0; i < config_.n_ues; ++i) {
    fleet_.add_ue(ue_position_at(i, 0.0, engagement), base_spec_[i]);
  }
  hour_ue_bits_.assign(config_.n_ues, 0.0);
}

fleet::Fleet Campaign::make_fleet() const {
  fleet::FleetConfig fc = config_.fleet;
  fc.seed = config_.seed;
  fc.threads = config_.threads;
  // Weather fronts become wide-area SRS SNR sags on the fleet fault plan.
  // Fleet fault time base is t = epoch - 1, so the campaign's global epoch
  // index (hour * epochs_per_hour + e, 0-based) is the window coordinate.
  for (const WeatherFront& w : config_.weather) {
    sim::FaultWindow win;
    win.kind = sim::FaultKind::kSrsSnrSag;
    win.start_s = w.start_h * config_.epochs_per_hour;
    win.end_s = w.end_h * config_.epochs_per_hour;
    win.magnitude = w.snr_sag_db;
    fc.faults.add(win);
  }
  return fleet::Fleet(fc, channel_);
}

std::vector<double> Campaign::crowd_engagements(double hod) const {
  std::vector<double> engagement;
  engagement.reserve(config_.crowds.size());
  for (const FlashCrowd& crowd : config_.crowds) engagement.push_back(crowd_engagement(crowd, hod));
  return engagement;
}

geo::Vec3 Campaign::ue_position_at(std::size_t ue, double hod,
                                   std::span<const double> engagement) const {
  geo::Vec2 p = commuter_[ue] != 0 ? mobility::commuter_position(commute_, ue, hod)
                                   : static_pos_[ue];
  for (std::size_t k = 0; k < config_.crowds.size(); ++k) {
    const FlashCrowd& crowd = config_.crowds[k];
    const double e = engagement[k];
    if (e <= 0.0) continue;
    if (!crowd_applies(crowd, ue, p, config_.seed, k + 1)) continue;
    p = crowd_position(crowd, p, ue, e, config_.seed, k + 1);
  }
  return {p.x, p.y, 1.5};
}

void Campaign::step_logistics(double epoch_s, HourReport& hr) {
  for (std::size_t c = 0; c < battery_.size(); ++c) {
    if (swap_left_[c] > 0) {
      // At the depot: no service, no hover draw; return with a fresh pack.
      --swap_left_[c];
      ++hr.depot_epochs;
      ++depot_epochs_;
      if (swap_left_[c] == 0) {
        battery_[c].restore_remaining_wh(battery_[c].capacity_wh());
        fleet_.set_cell_position(c, station_[c]);
      }
      continue;
    }
    const double before = battery_[c].remaining_wh();
    battery_[c].drain(epoch_s, 0.0);
    const double spent = before - battery_[c].remaining_wh();
    hr.energy_wh += spent;
    energy_wh_ += spent;
    if (battery_[c].remaining_fraction() < kReserveFraction) {
      // Reserve tripped: ferry to the depot. The cell's RSRP collapses from
      // there, so the next A3 evaluations drain its UEs to the neighbors.
      swap_left_[c] = config_.depot.swap_epochs;
      ++hr.swaps_started;
      ++swaps_;
      hr.energy_wh += kSwapEnergyWh;
      energy_wh_ += kSwapEnergyWh;
      fleet_.set_cell_position(c, config_.depot.position);
    }
  }
}

HourReport Campaign::run_hour() {
  expects(hour_ < config_.hours, "Campaign::run_hour: all configured hours already run");
  SKYRAN_TRACE_SPAN("campaign.hour");
  core::ScopedWorkers scoped(config_.threads);
  HourReport hr;
  hr.hour = hour_;
  const double mid = wrap24(hour_ + 0.5);
  hr.diurnal_level = diurnal_level(mid);

  // Hour inputs: every UE's spec is its base model at the diurnal level,
  // boosted by any crowd it participates in at mid-hour. Pure function of
  // (config, hour, UE) — a restored campaign re-derives identical specs, and
  // each lane writes only its own UEs' slots.
  {
    SKYRAN_TRACE_SPAN("campaign.ue_inputs");
    const std::vector<double> engagement = crowd_engagements(mid);
    core::parallel_for(config_.n_ues, [&](std::size_t i) {
      const geo::Vec2 base = commuter_[i] != 0
                                 ? mobility::commuter_position(commute_, i, mid)
                                 : static_pos_[i];
      double m = hr.diurnal_level;
      for (std::size_t k = 0; k < config_.crowds.size(); ++k) {
        const FlashCrowd& crowd = config_.crowds[k];
        if (engagement[k] <= 0.0 || !crowd_applies(crowd, i, base, config_.seed, k + 1))
          continue;
        m *= crowd_rate_multiplier(crowd, engagement[k]);
      }
      lte::TrafficSpec spec = base_spec_[i];
      spec.rate_bps = base_rate_bps_[i] * m;
      fleet_.set_ue_traffic(i, spec);
    });
  }

  hour_ue_bits_.assign(config_.n_ues, 0.0);
  const double epoch_s = 3600.0 / config_.epochs_per_hour;
  double sinr_sum = 0.0;
  std::uint64_t hr_served = 0;
  for (int e = 0; e < config_.epochs_per_hour; ++e) {
    const double hod = wrap24(hour_ + (e + 0.5) / config_.epochs_per_hour);
    step_logistics(epoch_s, hr);
    {
      SKYRAN_TRACE_SPAN("campaign.ue_positions");
      const std::vector<double> engagement = crowd_engagements(hod);
      core::parallel_for(config_.n_ues, [&](std::size_t i) {
        fleet_.set_ue_position(i, ue_position_at(i, hod, engagement));
      });
    }
    const fleet::FleetEpochReport er = fleet_.run_epoch();
    hr.offered_bits += er.offered_bits;
    hr.served_bits += er.served_bits;
    hr.handovers += er.ho_successes;
    hr.pingpongs += er.ho_pingpongs;
    hr.steering_steps += static_cast<std::uint64_t>(er.steering_steps);
    sinr_sum += er.mean_sinr_db;
    {
      // Each UE's bits accumulate in its own slot; the served count is an
      // integer, so its chunk-order sum is exact for any worker count.
      SKYRAN_TRACE_SPAN("campaign.tally");
      hr_served += core::parallel_reduce(
          config_.n_ues, 0, std::uint64_t{0},
          [&](std::size_t begin, std::size_t end) {
            std::uint64_t served = 0;
            for (std::size_t i = begin; i < end; ++i) {
              hour_ue_bits_[i] += fleet_.ue_served_bits(i);
              if (fleet_.serving_cell(i) >= 0 &&
                  fleet_.sinr_db(i) >= kMinServiceSinrDb)
                ++served;
            }
            return served;
          },
          std::plus<>());
    }
  }
  hr.mean_sinr_db = sinr_sum / config_.epochs_per_hour;

  const std::uint64_t samples =
      static_cast<std::uint64_t>(config_.n_ues) * config_.epochs_per_hour;
  hr.availability = static_cast<double>(hr_served) / static_cast<double>(samples);
  served_samples_ += hr_served;
  total_samples_ += samples;

  // Per-UE delivered throughput over the hour's simulated service time
  // (the traffic plane advances ttis_per_epoch TTIs per epoch), computed in
  // the hour scratch; selection permutes it, which no later step reads.
  const double service_s =
      config_.epochs_per_hour * config_.fleet.ttis_per_epoch * lte::kTtiSeconds;
  std::vector<double>& tput = hour_ue_bits_;
  for (double& b : tput) b /= service_s;
  hr.p5_tput_bps = geo::percentile_inplace(tput, 0.05);
  hr.p50_tput_bps = geo::percentile_inplace(tput, 0.50);
  hr.p95_tput_bps = geo::percentile_inplace(tput, 0.95);

  by_hour_.push_back(hr);
  ++hour_;

  SKYRAN_COUNTER_INC("campaign.hours");
  SKYRAN_COUNTER_ADD("campaign.swaps", hr.swaps_started);
  SKYRAN_COUNTER_ADD("campaign.served_bits", static_cast<std::uint64_t>(hr.served_bits));
  SKYRAN_GAUGE_SET("campaign.availability", hr.availability);
  SKYRAN_GAUGE_SET("campaign.diurnal_level", hr.diurnal_level);
  sim::crash_point("hour.tick");
  return hr;
}

CampaignReport Campaign::report() const {
  CampaignReport rep;
  rep.seed = config_.seed;
  rep.hours = hour_;
  rep.epochs = hour_ * config_.epochs_per_hour;
  rep.n_ues = config_.n_ues;
  rep.n_cells = fleet_.cell_count();
  rep.energy_wh = energy_wh_;
  rep.swaps = swaps_;
  rep.depot_epochs = depot_epochs_;
  rep.min_hour_availability = by_hour_.empty() ? 0.0 : 1.0;
  for (const HourReport& hr : by_hour_) {
    rep.offered_bits += hr.offered_bits;
    rep.served_bits += hr.served_bits;
    rep.handovers += hr.handovers;
    rep.pingpongs += hr.pingpongs;
    rep.steering_steps += hr.steering_steps;
    rep.min_hour_availability = std::min(rep.min_hour_availability, hr.availability);
  }
  rep.availability = total_samples_ == 0
                         ? 0.0
                         : static_cast<double>(served_samples_) /
                               static_cast<double>(total_samples_);
  rep.energy_wh_per_gbit =
      rep.served_bits > 0.0 ? rep.energy_wh / (rep.served_bits / 1e9) : 0.0;
  rep.by_hour = by_hour_;
  return rep;
}

CampaignReport Campaign::run() {
  while (!done()) run_hour();
  return report();
}

template <class Sink>
void Campaign::write_state(Sink& sink) const {
  sink.pod(hour_);
  for (std::size_t c = 0; c < battery_.size(); ++c) {
    sink.pod(battery_[c].remaining_wh());
    sink.pod(swap_left_[c]);
  }
  sink.pod(energy_wh_);
  sink.pod(swaps_);
  sink.pod(depot_epochs_);
  sink.pod(served_samples_);
  sink.pod(total_samples_);
  for (const HourReport& hr : by_hour_) write_hour(sink, hr);
}

std::uint64_t Campaign::state_hash() const {
  // The fleet enters as its state_hash(), not its bytes: examples/
  // campaign_mini prints this value and its golden output pins it.
  geo::Fnv1a h(kDigestBasis);
  write_state(h);
  h.pod(fleet_.state_hash());
  return h.value();
}

void Campaign::save(std::ostream& os) const {
  const std::uint64_t fingerprint = config_digest(config_);
  geo::write_envelope(os, kMagic, kVersion, geo::sized_payload([&](auto& sink) {
                        sink.pod(fingerprint);
                        sink.pod(static_cast<std::uint64_t>(battery_.size()));
                        write_state(sink);
                        fleet_.write_state(sink);
                      }));
}

void Campaign::restore(std::istream& is) {
  const std::string payload = geo::read_envelope(is, kMagic, kVersion, "Campaign::restore");
  geo::BinReader r(payload);
  if (r.pod<std::uint64_t>() != config_digest(config_)) {
    throw geo::StateMismatchError(
        "Campaign::restore: saved state belongs to a different campaign "
        "(config fingerprint mismatch)");
  }
  const auto n_cells = r.pod<std::uint64_t>();
  if (n_cells != battery_.size()) {
    throw geo::StateMismatchError("Campaign::restore: cell population mismatch");
  }
  // Fields a valid save cannot hold are corrupt: reject them here, before
  // anything is committed, rather than as a contract failure mid-commit.
  // `hours` is inside the fingerprint, so an hour past it is one of them.
  const auto corrupt_unless = [](bool ok, const char* what) {
    if (!ok) throw geo::BinCorruptError(std::string("Campaign::restore: ") + what);
  };
  const int hour = r.pod<int>();
  corrupt_unless(hour >= 0 && hour <= config_.hours, "hour counter out of range");
  std::vector<double> batt_wh(n_cells);
  std::vector<std::int32_t> swap(n_cells);
  for (std::uint64_t c = 0; c < n_cells; ++c) {
    batt_wh[c] = r.pod<double>();
    swap[c] = r.pod<std::int32_t>();
    corrupt_unless(std::isfinite(batt_wh[c]) && batt_wh[c] >= 0.0,
                   "battery energy must be finite and >= 0");
    corrupt_unless(swap[c] >= 0 && swap[c] <= config_.depot.swap_epochs,
                   "swap epochs left out of range");
  }
  const double energy_wh = r.pod<double>();
  corrupt_unless(std::isfinite(energy_wh), "energy must be finite");
  const auto swaps = r.pod<std::uint64_t>();
  const auto depot_epochs = r.pod<std::uint64_t>();
  const auto served_samples = r.pod<std::uint64_t>();
  const auto total_samples = r.pod<std::uint64_t>();
  corrupt_unless(served_samples <= total_samples, "more served samples than samples");
  std::vector<HourReport> rows;  // one per hour run
  rows.reserve(static_cast<std::size_t>(hour));
  for (int i = 0; i < hour; ++i) rows.push_back(read_hour(r));

  // Strong exception safety: the fleet state that ends the payload restores
  // into a fresh fleet, committed only after it verifies, so a checkpoint
  // walker can fall back to an older generation after any throw.
  fleet::Fleet fresh = make_fleet();
  for (const geo::Vec3& s : station_) fresh.add_cell(s);
  const std::vector<double> engagement = crowd_engagements(0.0);
  for (std::size_t i = 0; i < config_.n_ues; ++i) {
    fresh.add_ue(ue_position_at(i, 0.0, engagement), base_spec_[i]);
  }
  fresh.read_state(r);

  fleet_ = std::move(fresh);
  hour_ = hour;
  for (std::size_t c = 0; c < battery_.size(); ++c) {
    battery_[c].restore_remaining_wh(batt_wh[c]);
    swap_left_[c] = swap[c];
  }
  energy_wh_ = energy_wh;
  swaps_ = swaps;
  depot_epochs_ = depot_epochs;
  served_samples_ = served_samples;
  total_samples_ = total_samples;
  by_hour_ = std::move(rows);
  hour_ue_bits_.assign(config_.n_ues, 0.0);
  SKYRAN_COUNTER_INC("campaign.restores");
}

CampaignConfig example_day_config(std::uint64_t seed, std::size_t n_ues, int cells_per_side) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.n_ues = n_ues;
  cfg.cells_per_side = cells_per_side;
  // A station-side battery pool (several pack sets) rather than one flight
  // pack: a cell trips its reserve roughly every 1.5 h and sits out one
  // epoch at the depot, so swaps stay a visible but non-crippling rhythm.
  cfg.depot.battery.capacity_wh = 2400.0;
  cfg.depot.swap_epochs = 1;
  cfg.weather.push_back({7.5, 9.0, 4.0});    // morning drizzle over the commute
  cfg.weather.push_back({19.0, 21.0, 8.0});  // evening storm into the peak
  FlashCrowd stadium;
  stadium.kind = CrowdKind::kStadium;
  stadium.start_h = 18.0;
  stadium.fill_h = 1.0;
  stadium.hold_h = 2.5;
  stadium.drain_h = 1.0;
  stadium.center = {0.75 * kAreaM, 0.75 * kAreaM};
  stadium.radius_m = 90.0;
  stadium.ue_fraction = 0.3;
  stadium.rate_boost = 3.0;
  cfg.crowds.push_back(stadium);
  FlashCrowd evac;
  evac.kind = CrowdKind::kEvacuation;
  evac.start_h = 13.5;
  evac.fill_h = 0.25;
  evac.hold_h = 1.0;
  evac.drain_h = 0.75;
  evac.center = {0.4 * kAreaM, 0.45 * kAreaM};
  evac.radius_m = 150.0;
  evac.rate_boost = 2.0;
  cfg.crowds.push_back(evac);
  return cfg;
}

}  // namespace skyran::scenario

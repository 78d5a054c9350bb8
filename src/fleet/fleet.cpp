#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/thread_pool.hpp"
#include "geo/binio.hpp"
#include "geo/contract.hpp"
#include "geo/hash.hpp"
#include "lte/amc.hpp"
#include "lte/sampling.hpp"
#include "obs/obs.hpp"
#include "rem/bank.hpp"
#include "rem/placement.hpp"
#include "rf/units.hpp"
#include "sim/crash_point.hpp"

namespace skyran::fleet {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'F'};
constexpr std::uint32_t kVersion = 2;

using geo::mix64;

// Downlink budget: the cell EIRP toward a UE and the UE-side noise floor.
constexpr double kCellTxPowerDbm = 36.0;
constexpr double kCellAntennaGainDbi = 5.0;
constexpr double kUeAntennaGainDbi = 0.0;
constexpr double kEirpDbm = kCellTxPowerDbm + kCellAntennaGainDbi + kUeAntennaGainDbi;
constexpr double kBandwidthHz = 10e6;
constexpr double kUeNoiseFigureDb = 9.0;

// Reads a slab's u64 count, checks it against the slab's fixed length and
// returns the slab's byte size.
template <typename T>
std::size_t slab_bytes(geo::BinReader& r, const std::vector<T>& slab) {
  if (r.count(sizeof(T)) != slab.size())
    throw geo::BinCorruptError("Fleet::restore: slab count disagrees with the population");
  return slab.size() * sizeof(T);
}

}  // namespace

Fleet::Fleet(FleetConfig config, const rf::ChannelModel& channel)
    : config_(std::move(config)), channel_(&channel) {
  expects(config_.ttis_per_epoch > 0, "Fleet: ttis_per_epoch must be positive");
  expects(config_.a3.time_to_trigger_epochs >= 1,
          "Fleet: A3 time_to_trigger_epochs must be >= 1");
  expects(config_.a3.offset_db >= 0.0 && config_.a3.hysteresis_db >= 0.0,
          "Fleet: A3 offset/hysteresis must be >= 0");
  expects(config_.a3.pingpong_window_epochs >= 1,
          "Fleet: A3 pingpong_window_epochs must be >= 1");
  expects(config_.steering.period_epochs >= 1,
          "Fleet: steering period_epochs must be >= 1");
  expects(config_.steering.step_db >= 0.0 && config_.steering.max_cio_db >= 0.0,
          "Fleet: steering step/max_cio must be >= 0");
  expects(config_.steering.util_deadband >= 0.0,
          "Fleet: steering util_deadband must be >= 0");
  // Validate the fault plan eagerly (same contract as the epoch pipeline).
  sim::FaultInjector probe(config_.faults, 0);
  (void)probe;
}

std::size_t Fleet::add_cell(geo::Vec3 position) {
  cell_pos_.push_back(position);
  cio_db_.push_back(0.0);
  util_.push_back(0.0);
  sag_db_.push_back(0.0);
  return cell_pos_.size() - 1;
}

std::size_t Fleet::add_ue(geo::Vec3 position, const lte::TrafficSpec& traffic) {
  lte::validate(traffic);
  ue_pos_.push_back(position);
  ue_spec_.push_back(traffic);
  serving_.push_back(-1);
  a3_target_.push_back(-1);
  a3_count_.push_back(0);
  last_cell_.push_back(-1);
  last_ho_epoch_.push_back(std::numeric_limits<std::int32_t>::min() / 2);
  ue_load_bits_.push_back(0.0);
  sinr_db_.push_back(0.0);
  ue_served_bits_.push_back(0.0);
  return ue_pos_.size() - 1;
}

void Fleet::set_ue_traffic(std::size_t ue, const lte::TrafficSpec& traffic) {
  expects(ue < ue_spec_.size(), "Fleet::set_ue_traffic: ue out of range");
  lte::validate(traffic);
  ue_spec_[ue] = traffic;
}

void Fleet::set_ue_position(std::size_t ue, geo::Vec3 position) {
  expects(ue < ue_pos_.size(), "Fleet::set_ue_position: ue out of range");
  ue_pos_[ue] = position;
}

void Fleet::set_cell_position(std::size_t cell, geo::Vec3 position) {
  expects(cell < cell_pos_.size(), "Fleet::set_cell_position: cell out of range");
  cell_pos_[cell] = position;
}

void Fleet::phase_measure(double fault_t) {
  SKYRAN_TRACE_SPAN("fleet.measure");
  const std::size_t n = ue_pos_.size();
  const std::size_t c_count = cell_pos_.size();
  const sim::FaultInjector injector(config_.faults, static_cast<std::uint64_t>(epoch_));
  for (std::size_t c = 0; c < c_count; ++c)
    sag_db_[c] = injector.active()
                     ? injector.cell_snr_sag_db(fault_t, static_cast<std::int32_t>(c))
                     : 0.0;
  rsrp_dbm_.resize(n * c_count);
  core::parallel_for(n, [&](std::size_t i) {
    const geo::Vec3 ue = ue_pos_[i];
    double* row = rsrp_dbm_.data() + i * c_count;
    for (std::size_t c = 0; c < c_count; ++c)
      row[c] = kEirpDbm - channel_->path_loss_db(cell_pos_[c], ue) - sag_db_[c];
  });
}

void Fleet::phase_decide() {
  SKYRAN_TRACE_SPAN("fleet.decide");
  const std::size_t n = ue_pos_.size();
  const std::size_t c_count = cell_pos_.size();
  const double enter_db = config_.a3.offset_db + config_.a3.hysteresis_db;
  const int ttt = config_.a3.time_to_trigger_epochs;
  ho_action_.assign(n, 0);
  core::parallel_for(n, [&](std::size_t i) {
    const double* row = rsrp_dbm_.data() + i * c_count;
    const std::int32_t s = serving_[i];
    if (s < 0) {
      // Unattached: pick the strongest CIO-biased cell (ties -> lowest index).
      std::int32_t best = 0;
      double best_m = row[0] + cio_db_[0];
      for (std::size_t c = 1; c < c_count; ++c) {
        const double m = row[c] + cio_db_[c];
        if (m > best_m) {
          best = static_cast<std::int32_t>(c);
          best_m = m;
        }
      }
      a3_target_[i] = best;
      ho_action_[i] = 3;
      return;
    }
    std::int32_t best = -1;
    double best_m = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < c_count; ++c) {
      if (static_cast<std::int32_t>(c) == s) continue;
      const double m = row[c] + cio_db_[c];
      if (m > best_m) {
        best = static_cast<std::int32_t>(c);
        best_m = m;
      }
    }
    const double serving_m = row[s] + cio_db_[s];
    if (best < 0 || best_m <= serving_m + enter_db) {
      a3_target_[i] = -1;
      a3_count_[i] = 0;
      return;
    }
    // A3 condition holds toward `best`: advance (or restart) time-to-trigger.
    a3_count_[i] = (a3_target_[i] == best) ? a3_count_[i] + 1 : 1;
    a3_target_[i] = best;
    ho_action_[i] = (a3_count_[i] >= ttt) ? 2 : 1;
  });
}

void Fleet::phase_apply(FleetEpochReport& report) {
  SKYRAN_TRACE_SPAN("fleet.apply");
  const std::size_t n = ue_pos_.size();
  const int window = config_.a3.pingpong_window_epochs;
  for (std::size_t i = 0; i < n; ++i) {
    switch (ho_action_[i]) {
      case 3: {
        serving_[i] = a3_target_[i];
        a3_target_[i] = -1;
        a3_count_[i] = 0;
        ++report.attach_events;
        break;
      }
      case 1:
        ++report.ho_attempts;
        break;
      case 2: {
        ++report.ho_attempts;
        ++report.ho_successes;
        const std::int32_t from = serving_[i];
        const std::int32_t to = a3_target_[i];
        const bool pingpong =
            to == last_cell_[i] && epoch_ - last_ho_epoch_[i] <= window;
        if (pingpong) ++report.ho_pingpongs;
        if (ho_log_.size() < kMaxHandoverLog)
          ho_log_.push_back({epoch_, static_cast<std::uint32_t>(i), from, to, pingpong});
        else
          ++totals_.ho_log_dropped;
        last_cell_[i] = from;
        last_ho_epoch_[i] = epoch_;
        serving_[i] = to;
        a3_target_[i] = -1;
        a3_count_[i] = 0;
        break;
      }
      default:
        break;
    }
  }
  totals_.attaches += report.attach_events;
  totals_.attempts += report.ho_attempts;
  totals_.successes += report.ho_successes;
  totals_.pingpongs += report.ho_pingpongs;
}

void Fleet::phase_sinr() {
  SKYRAN_TRACE_SPAN("fleet.sinr");
  const std::size_t n = ue_pos_.size();
  const std::size_t c_count = cell_pos_.size();
  const double noise_mw =
      rf::dbm_to_milliwatt(rf::noise_floor_dbm(kBandwidthHz, kUeNoiseFigureDb));
  core::parallel_for(n, [&](std::size_t i) {
    const double* row = rsrp_dbm_.data() + i * c_count;
    const std::int32_t s = serving_[i];
    const double signal_mw = rf::dbm_to_milliwatt(row[s]);
    double interference_mw = 0.0;
    for (std::size_t c = 0; c < c_count; ++c)
      if (static_cast<std::int32_t>(c) != s) interference_mw += rf::dbm_to_milliwatt(row[c]);
    sinr_db_[i] = 10.0 * std::log10(signal_mw / (noise_mw + interference_mw));
  });
}

void Fleet::phase_serve(FleetEpochReport& report) {
  SKYRAN_TRACE_SPAN("fleet.serve");
  const std::size_t n = ue_pos_.size();
  const std::size_t c_count = cell_pos_.size();

  // Group UEs by serving cell (counting sort -> ascending UE order per cell).
  cell_begin_.assign(c_count + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++cell_begin_[static_cast<std::size_t>(serving_[i]) + 1];
  for (std::size_t c = 0; c < c_count; ++c) cell_begin_[c + 1] += cell_begin_[c];
  members_.resize(n);
  std::vector<std::uint32_t> cursor(cell_begin_.begin(), cell_begin_.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    members_[cursor[static_cast<std::size_t>(serving_[i])]++] = static_cast<std::uint32_t>(i);

  report.cell_prb_util.assign(c_count, 0.0);
  report.cell_ues.assign(c_count, 0);
  ue_served_bits_.assign(n, 0.0);
  const double epoch_seconds = config_.ttis_per_epoch * lte::kTtiSeconds;
  // Cells are served in parallel; each plane's own loops then run inline. A
  // body writes only its cell's slots and its members' per-UE slots. Lanes
  // claim cells largest first, so one big cell claimed last cannot leave the
  // other lanes idle; the order changes no result.
  std::vector<std::uint32_t> claim_order(c_count);
  for (std::size_t c = 0; c < c_count; ++c) claim_order[c] = static_cast<std::uint32_t>(c);
  std::stable_sort(claim_order.begin(), claim_order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cell_begin_[a + 1] - cell_begin_[a] > cell_begin_[b + 1] - cell_begin_[b];
  });
  std::vector<double> cell_offered(c_count, 0.0);
  std::vector<double> cell_served(c_count, 0.0);
  core::parallel_for(
      c_count,
      [&](std::size_t slot) {
        const std::size_t c = claim_order[slot];
        const std::uint32_t begin = cell_begin_[c];
        const std::uint32_t end = cell_begin_[c + 1];
        report.cell_ues[c] = end - begin;
        if (begin == end) {
          util_[c] = 0.0;
          return;
        }
        lte::TrafficPlaneConfig plane_cfg = config_.plane;
        plane_cfg.seed = mix64(config_.seed ^ mix64(static_cast<std::uint64_t>(epoch_) ^
                                                    mix64(0x5eedULL + c)));
        lte::TrafficPlane plane(plane_cfg);
        plane.reserve(end - begin);
        for (std::uint32_t k = begin; k < end; ++k) {
          const std::uint32_t ue = members_[k];
          plane.add_ue(ue + 1, sinr_db_[ue], ue_spec_[ue]);
        }
        plane.run_ttis(config_.ttis_per_epoch);
        const int prb_total = plane.last_tti().prb_total;
        // Demand-based PRB utilization: the fraction of the grid the members'
        // offered traffic NEEDS at their channel quality. Granted-PRB counting
        // is useless as a load signal here — the proportional-fair scheduler
        // spreads the whole grid over any backlogged UE, so grants read ~100%
        // on a nearly idle cell. Demand/capacity is what a RIC steers on.
        const double grid_prbs =
            static_cast<double>(config_.ttis_per_epoch) * std::max(prb_total, 1);
        double needed_prbs = 0.0;
        for (std::uint32_t k = begin; k < end; ++k) {
          const std::uint32_t ue = members_[k];
          if (ue_spec_[ue].model == lte::TrafficModel::kFullBuffer) {
            needed_prbs = grid_prbs;  // infinite demand: the cell is saturated
            break;
          }
          const double rate_1prb = lte::cqi_efficiency(lte::snr_to_cqi(sinr_db_[ue])) *
                                   lte::kPrbBandwidthHz * lte::kTtiSeconds *
                                   (1.0 - lte::kL1OverheadFraction);
          if (rate_1prb <= 0.0) {
            needed_prbs = grid_prbs;  // out of CQI range: no rate, pure backlog
            break;
          }
          needed_prbs += plane.offered_bits(k - begin) / rate_1prb;
        }
        util_[c] = std::min(1.0, needed_prbs / grid_prbs);
        // The cell totals sum the members in plane order from 0.0, exactly as
        // TrafficPlane::report would, without its per-UE sorts.
        double offered = 0.0;
        double served = 0.0;
        for (std::uint32_t k = begin; k < end; ++k) {
          offered += plane.offered_bits(k - begin);
          served += plane.served_bits(k - begin);
          ue_load_bits_[members_[k]] =
              plane.offered_bits(k - begin) + plane.served_bits(k - begin);
          ue_served_bits_[members_[k]] = plane.served_bits(k - begin);
        }
        cell_offered[c] = offered;
        cell_served[c] = served;
      },
      /*grain=*/1);
  // Summed serially in cell order, so the totals round the same way for any
  // worker count.
  for (std::size_t c = 0; c < c_count; ++c) {
    report.offered_bits += cell_offered[c];
    report.served_bits += cell_served[c];
  }
  report.aggregate_throughput_bps = report.served_bits / epoch_seconds;
  totals_.served_bits += report.served_bits;

  double max_util = 0.0;
  double sum_util = 0.0;
  for (std::size_t c = 0; c < c_count; ++c) {
    report.cell_prb_util[c] = util_[c];
    max_util = std::max(max_util, util_[c]);
    sum_util += util_[c];
  }
  report.max_prb_util = max_util;
  report.mean_prb_util = c_count > 0 ? sum_util / static_cast<double>(c_count) : 0.0;
}

void Fleet::phase_steer(FleetEpochReport& report) {
  const SteeringConfig& s = config_.steering;
  if (!s.enabled || cell_pos_.size() < 2 || epoch_ % s.period_epochs != 0) return;
  // One gradient step on per-cell PRB utilization: the hottest cell sheds
  // (CIO down), the coolest attracts (CIO up). Ties break to the lowest
  // index; the deadband keeps a balanced fleet from oscillating.
  std::size_t hot = 0, cool = 0;
  for (std::size_t c = 1; c < util_.size(); ++c) {
    if (util_[c] > util_[hot]) hot = c;
    if (util_[c] < util_[cool]) cool = c;
  }
  if (util_[hot] - util_[cool] <= s.util_deadband) return;
  const double new_hot = std::max(cio_db_[hot] - s.step_db, -s.max_cio_db);
  const double new_cool = std::min(cio_db_[cool] + s.step_db, s.max_cio_db);
  int steps = 0;
  if (new_hot != cio_db_[hot]) {
    cio_db_[hot] = new_hot;
    ++steps;
  }
  if (new_cool != cio_db_[cool]) {
    cio_db_[cool] = new_cool;
    ++steps;
  }
  report.steering_steps = steps;
  totals_.steer_steps += static_cast<std::uint64_t>(steps);
}

FleetEpochReport Fleet::run_epoch() {
  SKYRAN_TRACE_SPAN("fleet.epoch");
  expects(!cell_pos_.empty(), "Fleet::run_epoch: add at least one cell first");
  core::ScopedWorkers scoped(config_.threads);
  ++epoch_;
  FleetEpochReport report;
  report.epoch = epoch_;

  phase_measure(/*fault_t=*/static_cast<double>(epoch_ - 1));
  phase_decide();
  phase_apply(report);
  phase_sinr();
  phase_serve(report);
  phase_steer(report);
  sim::crash_point("epoch.steer");

  const std::size_t n = ue_pos_.size();
  if (n > 0) {
    double min_sinr = sinr_db_[0];
    double sum_sinr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      min_sinr = std::min(min_sinr, sinr_db_[i]);
      sum_sinr += sinr_db_[i];
    }
    report.min_sinr_db = min_sinr;
    report.mean_sinr_db = sum_sinr / static_cast<double>(n);
  }

  SKYRAN_GAUGE_SET("fleet.cells", static_cast<double>(cell_pos_.size()));
  SKYRAN_GAUGE_SET("fleet.ues", static_cast<double>(n));
  SKYRAN_GAUGE_SET("fleet.prb_util_max", report.max_prb_util);
  SKYRAN_COUNTER_INC("fleet.epochs");
  SKYRAN_COUNTER_ADD("fleet.attaches", report.attach_events);
  SKYRAN_COUNTER_ADD("fleet.steer.steps", static_cast<std::uint64_t>(report.steering_steps));
  SKYRAN_COUNTER_ADD("ho.attempts", report.ho_attempts);
  SKYRAN_COUNTER_ADD("ho.successes", report.ho_successes);
  SKYRAN_COUNTER_ADD("ho.pingpongs", report.ho_pingpongs);
  for (std::size_t c = 0; c < cell_pos_.size(); ++c)
    SKYRAN_HISTOGRAM_OBSERVE("fleet.prb_util", util_[c]);
  return report;
}

PlacementRefresh Fleet::refresh_placement(const rem::RemBank& bank,
                                          const terrain::Terrain& terrain) {
  SKYRAN_TRACE_SPAN("fleet.place");
  expects(epoch_ >= 1, "Fleet::refresh_placement: run at least one epoch first");
  expects(!cell_pos_.empty(), "Fleet::refresh_placement: fleet has no cells");
  expects(bank.estimates_current(),
          "Fleet::refresh_placement: bank estimates are stale (call estimate_all)");

  const std::size_t c_count = cell_pos_.size();
  const int cell = (epoch_ - 1) % static_cast<int>(c_count);
  PlacementRefresh out;
  out.cell = cell;
  out.position = {cell_pos_[cell].x, cell_pos_[cell].y};

  // Assign every REM pseudo-UE to its strongest cell (unbiased RSRP: the
  // geometric association, independent of the steering CIOs).
  std::vector<std::size_t> points;
  for (std::size_t p = 0; p < bank.ue_count(); ++p) {
    const geo::Vec3 pos = bank.ue_position(p);
    std::size_t best = 0;
    double best_dbm = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < c_count; ++c) {
      const double dbm = kEirpDbm - channel_->path_loss_db(cell_pos_[c], pos);
      if (dbm > best_dbm) {
        best = c;
        best_dbm = dbm;
      }
    }
    if (best == static_cast<std::size_t>(cell)) points.push_back(p);
  }
  if (points.empty()) return out;
  out.points = static_cast<int>(points.size());

  // Per-point load: each of this cell's UEs contributes its last-epoch
  // offered+served bits to the nearest of the cell's points.
  std::vector<double> point_load(points.size(), 0.0);
  for (std::size_t i = 0; i < ue_pos_.size(); ++i) {
    if (serving_[i] != cell) continue;
    std::size_t nearest = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < points.size(); ++k) {
      const geo::Vec3 pp = bank.ue_position(points[k]);
      const double dx = pp.x - ue_pos_[i].x;
      const double dy = pp.y - ue_pos_[i].y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < best_d2) {
        nearest = k;
        best_d2 = d2;
      }
    }
    point_load[nearest] += ue_load_bits_[i];
  }
  double mean_load = 0.0;
  for (const double l : point_load) mean_load += l;
  mean_load /= static_cast<double>(point_load.size());

  // Max-min SINR-under-load: copy each point's REM with a penalty of
  // 10*log10(relative load) subtracted, then reuse the max-min scorer — a
  // point carrying 10x the mean load needs 10 dB more headroom to tie.
  std::vector<geo::Grid2D<double>> grids;
  grids.reserve(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    geo::Grid2D<double> g = bank.estimate_grid(points[k]);
    if (mean_load > 0.0) {
      const double penalty_db = 10.0 * std::log10(std::max(1.0, point_load[k] / mean_load));
      if (penalty_db > 0.0)
        for (double& v : g.raw()) v -= penalty_db;
    }
    grids.push_back(std::move(g));
  }
  const rem::Placement placement = rem::choose_placement_feasible(
      geo::views_of(grids), terrain, bank.altitude_m(), rem::PlacementObjective::kMaxMin);
  cell_pos_[cell] = {placement.position.x, placement.position.y, bank.altitude_m()};
  out.position = placement.position;
  out.objective_db = placement.objective_snr_db;
  ++totals_.refreshes;
  SKYRAN_COUNTER_INC("fleet.placement.refreshes");
  return out;
}

template <class Sink>
void Fleet::write_state(Sink& sink) const {
  sink.pod(config_.seed);
  sink.pod(static_cast<std::uint64_t>(cell_pos_.size()));
  sink.pod(static_cast<std::uint64_t>(ue_pos_.size()));
  sink.pod(epoch_);
  std::apply([&sink](const auto&... slab) { (geo::write_counted(sink, slab), ...); },
             slabs(*this));
  sink.pod(totals_);
}

template void Fleet::write_state(geo::BinWriter&) const;
template void Fleet::write_state(geo::Fnv1a&) const;
template void Fleet::write_state(geo::ByteCount&) const;

std::uint64_t Fleet::state_hash() const {
  geo::Fnv1a h;
  write_state(h);
  return h.value();
}

void Fleet::save(std::ostream& os) const {
  geo::write_envelope(os, kMagic, kVersion,
                      geo::sized_payload([this](auto& sink) { write_state(sink); }));
}

void Fleet::restore(std::istream& is) {
  const std::string payload = geo::read_envelope(is, kMagic, kVersion, "Fleet::restore");
  geo::BinReader r(payload);
  read_state(r);
}

void Fleet::read_state(geo::BinReader& r) {
  const auto seed = r.pod<std::uint64_t>();
  const auto n_cells = r.pod<std::uint64_t>();
  const auto n_ues = r.pod<std::uint64_t>();
  if (seed != config_.seed || n_cells != cell_pos_.size() || n_ues != ue_pos_.size())
    throw geo::StateMismatchError(
        "Fleet::restore: saved state belongs to a different fleet "
        "(seed or cell/UE population mismatch)");
  // The population fixes the layout. Walk it on a copy of the reader first,
  // so a bad count, a short payload or trailing bytes throw before any
  // member changes.
  geo::BinReader probe = r;
  probe.skip(sizeof(epoch_));
  std::apply([&probe](const auto&... slab) { (probe.skip(slab_bytes(probe, slab)), ...); },
             slabs(*this));
  probe.skip(sizeof(Totals));
  if (!probe.done()) throw geo::BinCorruptError("Fleet::restore: trailing bytes after last field");

  epoch_ = r.pod<int>();
  std::apply([&r](auto&... slab) { (r.bytes(slab.data(), slab_bytes(r, slab)), ...); },
             slabs(*this));
  totals_ = r.pod<Totals>();
}

}  // namespace skyran::fleet

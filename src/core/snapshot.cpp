#include "core/snapshot.hpp"

#include <sstream>

#include "core/config.hpp"
#include "core/skyran.hpp"
#include "geo/binio.hpp"
#include "geo/hash.hpp"
#include "sim/config_hash.hpp"
#include "sim/generation_store.hpp"

namespace skyran::core {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'Y', 'S'};

}  // namespace

std::uint64_t config_digest(const SkyRanConfig& c) {
  geo::Fnv1a h;
  h.pod(c.rem_cell_m);
  h.pod(c.epoch_drop_threshold);
  h.pod(c.reuse_radius_m);
  h.pod(c.measurement_budget_m);
  h.pod(static_cast<std::int32_t>(c.localization_mode));
  h.pod(c.injected_error_m);
  h.pod(c.battery_reserve_fraction);
  h.pod(c.battery.capacity_wh);
  h.pod(c.battery.hover_power_w);
  h.pod(c.battery.forward_power_w_per_mps);
  h.pod(c.planner.k_min);
  h.pod(c.planner.k_max);
  h.pod(c.planner.info.i_max);
  h.pod(c.idw.k_neighbors);
  h.pod(c.idw.power);
  h.pod(c.idw.max_radius_m);
  h.pod(c.idw.background_blend_m);
  h.pod(c.localizer.flight_length_m);
  h.pod(c.localizer.flight_leg_m);
  const localization::RangingConfig& r = c.localizer.ranging;
  sim::hash_config(h, r.srs.carrier);
  h.pod(r.srs.sounding_prb);
  h.pod(r.srs.comb);
  h.pod(r.srs.comb_offset);
  h.pod(r.srs.zc_root);
  h.pod(r.min_snr_db);
  h.pod(r.min_peak_to_side_db);
  h.pod(c.measurement.report_rate_hz);
  h.pod(c.measurement.fading_sigma_db);
  h.pod(static_cast<std::int32_t>(c.objective));
  h.pod(c.service.ttis);
  sim::hash_config(h, c.service.plane);  // run_epoch sets its carrier and seed
  const lte::TrafficSpec& t = c.service.ue_traffic;
  h.pod(static_cast<std::int32_t>(t.model));
  h.pod(t.rate_bps);
  h.pod(t.mean_on_ttis);
  h.pod(t.mean_off_ttis);
  h.pod(t.frame_interval_ttis);
  h.pod(t.gop_frames);
  h.pod(t.multicast_subscriber);
  sim::hash_config(h, c.faults);
  // threads intentionally excluded: serial == N-worker bit-identity makes
  // the worker count resume-neutral.
  return h.value();
}

std::uint64_t report_digest(const EpochReport& r) {
  geo::Fnv1a h;
  h.pod(r.epoch);
  h.pod(static_cast<std::uint64_t>(r.estimated_ue_positions.size()));
  h.bytes(r.estimated_ue_positions.data(), r.estimated_ue_positions.size() * sizeof(geo::Vec2));
  h.pod(static_cast<std::uint64_t>(r.reused_rem.size()));
  for (const bool b : r.reused_rem) h.pod(static_cast<std::uint8_t>(b));
  h.pod(r.localization_flight_m);
  h.pod(r.altitude_flight_m);
  h.pod(r.measurement_flight_m);
  h.pod(r.total_flight_m);
  h.pod(r.flight_time_s);
  h.pod(r.altitude_m);
  h.pod(r.position);
  h.pod(r.predicted_objective_snr_db);
  h.pod(r.served_mean_throughput_bps);
  h.pod(r.planned_k);
  h.pod(r.info_to_cost);
  h.pod(r.measurement_rounds);
  const lte::TrafficPlaneReport& t = r.traffic;
  h.pod(t.ttis);
  h.pod(static_cast<std::uint64_t>(t.ues));
  h.pod(t.scheduled_ue_ttis);
  h.pod(t.offered_bits);
  h.pod(t.served_bits);
  h.pod(t.dropped_bits);
  h.pod(t.aggregate_throughput_bps);
  h.pod(t.fairness_jain);
  h.pod(t.p50_throughput_bps);
  h.pod(t.p90_throughput_bps);
  h.pod(t.p99_throughput_bps);
  h.pod(t.p50_delay_ms);
  h.pod(t.p90_delay_ms);
  h.pod(t.p99_delay_ms);
  h.pod(t.harq_first_tx);
  h.pod(t.harq_retx);
  h.pod(t.harq_drops);
  h.pod(t.harq_residual_bler);
  h.pod(t.mbsfn_subframes);
  h.pod(t.multicast_served_bits);
  h.pod(t.multicast_backlog_bits);
  h.pod(static_cast<std::uint8_t>(r.degraded));
  return h.value();
}

void Snapshot::save(std::ostream& os) const {
  geo::BinWriter w;
  w.pod(seed);
  w.pod(config_fingerprint);
  w.pod(static_cast<std::int32_t>(epoch));
  w.pod(position);
  w.pod(altitude_m);
  w.pod(static_cast<std::uint8_t>(altitude_known));
  w.pod(total_flight_m);
  w.pod(throughput_at_placement_bps);
  w.pod(battery_remaining_wh);
  w.str(rng_state);
  w.pod(static_cast<std::uint64_t>(last_estimates.size()));
  w.bytes(last_estimates.data(), last_estimates.size() * sizeof(geo::Vec2));
  w.pod(static_cast<std::uint64_t>(ue_positions.size()));
  w.bytes(ue_positions.data(), ue_positions.size() * sizeof(geo::Vec3));
  {
    std::ostringstream store_bytes;
    store.save(store_bytes);
    w.str(std::move(store_bytes).str());
  }
  w.pod(static_cast<std::uint64_t>(history.size()));
  for (const HistoryEntry& e : history) {
    w.pod(e.position);
    w.pod(static_cast<std::uint64_t>(e.trajectories.size()));
    for (const geo::Path& p : e.trajectories) {
      w.pod(static_cast<std::uint64_t>(p.points().size()));
      w.bytes(p.points().data(), p.points().size() * sizeof(geo::Vec2));
    }
  }
  geo::write_envelope(os, kMagic, kVersion, w);
  if (!os) throw sim::CheckpointIoError("Snapshot::save: write failed");
}

Snapshot Snapshot::load(std::istream& is) {
  const std::string payload = geo::read_envelope(is, kMagic, kVersion, "Snapshot::load");
  geo::BinReader r(payload);
  Snapshot s;
  s.seed = r.pod<std::uint64_t>();
  s.config_fingerprint = r.pod<std::uint64_t>();
  s.epoch = r.pod<std::int32_t>();
  s.position = r.pod<geo::Vec2>();
  s.altitude_m = r.pod<double>();
  s.altitude_known = r.pod<std::uint8_t>() != 0;
  s.total_flight_m = r.pod<double>();
  s.throughput_at_placement_bps = r.pod<double>();
  s.battery_remaining_wh = r.pod<double>();
  s.rng_state = r.str();
  s.last_estimates.resize(r.count(sizeof(geo::Vec2)));
  for (geo::Vec2& v : s.last_estimates) v = r.pod<geo::Vec2>();
  s.ue_positions.resize(r.count(sizeof(geo::Vec3)));
  for (geo::Vec3& v : s.ue_positions) v = r.pod<geo::Vec3>();
  {
    std::istringstream store_bytes(r.str());
    s.store = rem::RemStore::load(store_bytes);
  }
  // Smallest encodings: a history entry is a position plus a path count; a
  // path is at least its point count.
  const std::size_t n_history = r.count(sizeof(geo::Vec2) + sizeof(std::uint64_t));
  s.history.reserve(n_history);
  for (std::size_t i = 0; i < n_history; ++i) {
    HistoryEntry e;
    e.position = r.pod<geo::Vec2>();
    const std::size_t n_paths = r.count(sizeof(std::uint64_t));
    e.trajectories.reserve(n_paths);
    for (std::size_t p = 0; p < n_paths; ++p) {
      std::vector<geo::Vec2> pts(r.count(sizeof(geo::Vec2)));
      for (geo::Vec2& v : pts) v = r.pod<geo::Vec2>();
      e.trajectories.emplace_back(std::move(pts));
    }
    s.history.push_back(std::move(e));
  }
  if (!r.done()) throw geo::BinCorruptError("Snapshot::load: trailing bytes after last field");
  return s;
}

}  // namespace skyran::core

#include "core/snapshot.hpp"

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
  geo::write_envelope(os, kMagic, kVersion, payload_);
  if (!os) throw sim::CheckpointIoError("Snapshot::save: write failed");
}

Snapshot Snapshot::load(std::istream& is) {
  return Snapshot(geo::read_envelope(is, kMagic, kVersion, "Snapshot::load"));
}

}  // namespace skyran::core

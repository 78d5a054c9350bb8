// Field-by-field hashing of the config structs that more than one resumable
// session fingerprints (core::config_digest, scenario::config_digest). Never
// the structs' raw bytes: their padding is indeterminate.
#pragma once

#include <cstdint>

#include "geo/hash.hpp"
#include "lte/traffic_plane.hpp"
#include "sim/faults.hpp"

namespace skyran::sim {

inline void hash_config(geo::Fnv1a& h, const lte::BandwidthConfig& c) {
  h.pod(c.bandwidth_hz);
  h.pod(c.n_prb);
  h.pod(static_cast<std::uint64_t>(c.fft_size));
  h.pod(c.sample_rate_hz);
}

/// Every field but `carrier` and `seed`: each session derives the plane
/// seed per epoch, and hashes the carrier itself where it does not
/// overwrite it.
inline void hash_config(geo::Fnv1a& h, const lte::TrafficPlaneConfig& c) {
  h.pod(static_cast<std::int32_t>(c.policy));
  h.pod(c.harq_max_retx);
  h.pod(c.harq_combining_gain_db);
  h.pod(c.target_bler);
  h.pod(c.adaptive_mbsfn);
  h.pod(c.multicast_rate_bps);
}

inline void hash_config(geo::Fnv1a& h, const FaultPlan& plan) {
  h.pod(plan.seed);
  h.pod(static_cast<std::uint64_t>(plan.windows.size()));
  for (const FaultWindow& w : plan.windows) {
    h.pod(static_cast<std::int32_t>(w.kind));
    h.pod(w.start_s);
    h.pod(w.end_s);
    h.pod(w.magnitude);
    h.pod(w.heading_rad);
    h.pod(w.cell);
  }
}

}  // namespace skyran::sim

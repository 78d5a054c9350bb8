// World: terrain + ground-truth channel + link budget + UE population. This
// is the "physical reality" every scheme (SkyRAN, Uniform, Centroid) operates
// against; schemes may only learn about it through simulated measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lte/amc.hpp"
#include "lte/sampling.hpp"
#include "rf/channel.hpp"
#include "rf/link.hpp"
#include "terrain/synth.hpp"
#include "terrain/terrain.hpp"

namespace skyran::sim {

struct WorldConfig {
  terrain::TerrainKind terrain_kind = terrain::TerrainKind::kCampus;
  std::uint64_t seed = 1;
  double cell_size_m = 1.0;
  rf::RayTraceChannelParams channel{};
  rf::LinkBudget budget{};
  lte::BandwidthConfig carrier = lte::bandwidth_config(10.0);
};

class World {
 public:
  explicit World(const WorldConfig& config);

  /// World over a caller-supplied terrain (e.g. one shared between worlds).
  World(std::shared_ptr<const terrain::Terrain> terrain, const WorldConfig& config);

  const terrain::Terrain& terrain() const { return *terrain_; }
  std::shared_ptr<const terrain::Terrain> terrain_ptr() const { return terrain_; }
  const rf::RayTraceChannel& channel() const { return channel_; }
  const rf::LinkBudget& budget() const { return budget_; }
  const lte::BandwidthConfig& carrier() const { return carrier_; }
  const geo::Rect& area() const { return terrain_->area(); }

  std::vector<geo::Vec3>& ue_positions() { return ues_; }
  const std::vector<geo::Vec3>& ue_positions() const { return ues_; }

  /// Ground-truth SNR of the UAV->UE link, dB.
  double snr_db(geo::Vec3 uav, geo::Vec3 ue) const;

  /// Ground-truth full-bandwidth throughput of the link, bit/s.
  double link_throughput_bps(geo::Vec3 uav, geo::Vec3 ue) const;

  /// Mean per-UE throughput from a UAV position over all current UEs, bit/s
  /// (the paper's "average throughput" metric).
  double mean_throughput_bps(geo::Vec3 uav) const;

  /// Minimum per-UE SNR from a UAV position (the max-min objective input).
  double min_snr_db(geo::Vec3 uav) const;

 private:
  std::shared_ptr<const terrain::Terrain> terrain_;
  rf::RayTraceChannel channel_;
  rf::LinkBudget budget_;
  lte::BandwidthConfig carrier_;
  std::vector<geo::Vec3> ues_;
};

}  // namespace skyran::sim

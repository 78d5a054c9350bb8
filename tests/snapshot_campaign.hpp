// Deterministic checkpointed campaign of the snapshot suite
// (tests/test_snapshot.cpp). Everything here is a pure function of
// (kCampaignSeed, epoch) — world, config, and per-epoch UE mobility — so a
// driver resumed from a checkpoint regenerates the exact inputs the
// uninterrupted run saw. Stateless mobility is deliberate: a mobility model
// with internal RNG would need its own persistence or replay (see
// core/snapshot.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <optional>
#include <vector>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "mobility/deployment.hpp"
#include "sim/generation_store.hpp"
#include "sim/world.hpp"

namespace skyran::testcampaign {

constexpr std::uint64_t kCampaignSeed = 71;
constexpr int kUes = 5;

inline sim::WorldConfig world_config() {
  sim::WorldConfig wc;
  wc.terrain_kind = terrain::TerrainKind::kCampus;
  wc.seed = kCampaignSeed;
  wc.cell_size_m = 2.0;  // coarse raster keeps the PHY epochs fast
  return wc;
}

inline core::SkyRanConfig skyran_config(int threads) {
  core::SkyRanConfig cfg;
  cfg.measurement_budget_m = 400.0;
  cfg.rem_cell_m = 12.0;
  cfg.localizer.flight_length_m = 30.0;
  cfg.service.ttis = 64;
  cfg.threads = threads;
  // A live fault schedule: resume must also land on the same point of the
  // per-epoch fault replay (SRS sag during localization, a battery sag step).
  cfg.faults.seed = kCampaignSeed + 7;
  cfg.faults.add({.kind = sim::FaultKind::kSrsSnrSag, .start_s = 0.0, .end_s = 12.0,
                  .magnitude = 3.0});
  cfg.faults.add({.kind = sim::FaultKind::kBatterySag, .start_s = 60.0, .end_s = 61.0,
                  .magnitude = 0.01});
  return cfg;
}

/// UE truth for epoch `e` (1-based): stateless per-epoch relocation.
inline std::vector<geo::Vec3> ue_positions_for_epoch(const terrain::Terrain& t, int e) {
  return mobility::deploy_mixed_visibility(t, kUes, kCampaignSeed + 100 + static_cast<std::uint64_t>(e));
}

/// The session's checkpoint store in `dir`: "ckpt-<epoch>.skyc" files.
inline sim::GenerationStore snapshot_store(const std::filesystem::path& dir) {
  return sim::GenerationStore(dir, "ckpt-", ".skyc");
}

/// Restore `skyran` from the newest generation it accepts; returns that
/// generation.
inline std::optional<int> restore_snapshot(sim::GenerationStore& store, core::SkyRan& skyran) {
  return store.restore_latest(
      [&](std::istream& is) { skyran.restore(core::Snapshot::load(is)); });
}

/// Drive `skyran` from its current epoch through epoch `last` (inclusive),
/// applying the campaign mobility before each epoch. Returns one
/// report_digest per epoch run; when `digest_sink` is given it is called with
/// (epoch, digest) right after each epoch completes.
template <typename DigestSink>
std::vector<std::uint64_t> run_epochs(core::SkyRan& skyran, sim::World& world, int last,
                                      DigestSink&& digest_sink) {
  std::vector<std::uint64_t> digests;
  for (int e = skyran.epochs_run() + 1; e <= last; ++e) {
    world.ue_positions() = ue_positions_for_epoch(world.terrain(), e);
    const std::uint64_t digest = core::report_digest(skyran.run_epoch());
    digests.push_back(digest);
    digest_sink(e, digest);
  }
  return digests;
}

inline std::vector<std::uint64_t> run_epochs(core::SkyRan& skyran, sim::World& world, int last) {
  return run_epochs(skyran, world, last, [](int, std::uint64_t) {});
}

}  // namespace skyran::testcampaign

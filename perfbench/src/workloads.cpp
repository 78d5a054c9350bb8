#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <optional>
#include <sstream>

#include "core/skyran.hpp"
#include "core/snapshot.hpp"
#include "derive.hpp"
#include "fleet/fleet.hpp"
#include "lte/sampling.hpp"
#include "mobility/deployment.hpp"
#include "mobility/model.hpp"
#include "rf/channel.hpp"
#include "scenario/campaign.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

using namespace skyran;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64 finalizer: the benchmark's only source of input randomness.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix(mix(seed ^ mix(a)) + b) >> 11) / 9007199254740992.0;
}

/// A UE-step sample counts as served at or above this SINR (the campaign's
/// default service threshold, applied to every workload).
constexpr double kServiceSinrDb = -3.0;

// ---------------------------------------------------------------------------
// campaign_day: the reference 24 h day at fleet scale.

class CampaignDay final : public Workload {
 public:
  explicit CampaignDay(std::uint64_t seed)
      : cfg_(scenario::example_day_config(seed, 8000, /*cells_per_side=*/4)) {
    cfg_.hours = 24;
    cfg_.epochs_per_hour = 2;
    cfg_.fleet.ttis_per_epoch = 40;
  }

  int steps() const override { return cfg_.hours; }

  void setup(int lanes) override {
    cfg_.threads = lanes;
    campaign_.reset();
    campaign_.emplace(cfg_);
    save_ms_ = 0.0;
  }

  std::uint64_t step(int) override {
    const scenario::HourReport hr = campaign_->run_hour();
    const auto t0 = Clock::now();
    std::ostringstream os;
    campaign_->save(os);
    ckpt_ = std::move(os).str();
    save_ms_ += ms_since(t0);
    return scenario::hour_digest(hr);
  }

  std::uint64_t final_digest() const override {
    return scenario::campaign_digest(campaign_->report());
  }

  Quality quality() const override {
    const scenario::CampaignReport rep = campaign_->report();
    const double service_s =
        static_cast<double>(rep.epochs) * cfg_.fleet.ttis_per_epoch * lte::kTtiSeconds;
    Quality q;
    q.availability = rep.availability;
    q.served_gbit = rep.served_bits / 1e9;
    q.served_mbps_mean = rep.served_bits / (static_cast<double>(rep.n_ues) * service_s) / 1e6;
    q.handovers = rep.handovers;
    return q;
  }

  bool restore_matches(double& restore_ms) const override {
    scenario::Campaign fresh(cfg_);
    std::istringstream is(ckpt_);
    const auto t0 = Clock::now();
    fresh.restore(is);
    restore_ms = ms_since(t0);
    return fresh.state_hash() == campaign_->state_hash();
  }

 private:
  scenario::CampaignConfig cfg_;
  std::optional<scenario::Campaign> campaign_;
};

// ---------------------------------------------------------------------------
// fleet_radio: 16 cells x 10^5 walking CBR UEs; the radio slabs dominate.

class FleetRadio final : public Workload {
 public:
  static constexpr std::size_t kUes = 100000;
  static constexpr int kCellsPerSide = 4;
  static constexpr double kArea = 1200.0;
  static constexpr double kWalkM = 20.0;  ///< metres walked per epoch

  explicit FleetRadio(std::uint64_t seed) : channel_(2.6e9) {
    cfg_.seed = mix(seed ^ 0xF1EE7);
    cfg_.ttis_per_epoch = 2;
    cfg_.steering.period_epochs = 1;
    cfg_.steering.step_db = 0.25;
    cfg_.a3.time_to_trigger_epochs = 1;
    start_.resize(kUes);
    heading_.resize(kUes);
    rate_.resize(kUes);
    for (std::size_t i = 0; i < kUes; ++i) {
      start_[i] = {kArea * unit(seed, i, 1), kArea * unit(seed, i, 2)};
      const double a = 2.0 * std::numbers::pi * unit(seed, i, 3);
      heading_[i] = {std::cos(a), std::sin(a)};
      rate_[i] = 5e3 + 1.5e4 * unit(seed, i, 4);
    }
  }

  int steps() const override { return 10; }

  void setup(int lanes) override {
    cfg_.threads = lanes;
    fleet_.reset();
    fleet_.emplace(cfg_, channel_);
    populate(*fleet_);
    save_ms_ = 0.0;
    served_bits_ = 0.0;
    served_samples_ = 0;
  }

  void feed(int i) override {
    if (i == 0) return;
    for (std::size_t u = 0; u < kUes; ++u) fleet_->set_ue_position(u, position(u, i));
  }

  std::uint64_t step(int) override {
    last_ = fleet_->run_epoch();
    const auto t0 = Clock::now();
    std::ostringstream os;
    fleet_->save(os);
    ckpt_ = std::move(os).str();
    save_ms_ += ms_since(t0);
    return fleet_->state_hash();
  }

  void observe(int) override {
    served_bits_ += last_.served_bits;
    for (std::size_t u = 0; u < kUes; ++u)
      if (fleet_->serving_cell(u) >= 0 && fleet_->sinr_db(u) >= kServiceSinrDb) ++served_samples_;
  }

  std::uint64_t final_digest() const override { return fleet_->state_hash(); }

  Quality quality() const override {
    const double epochs = static_cast<double>(fleet_->epochs_run());
    const double service_s = epochs * cfg_.ttis_per_epoch * lte::kTtiSeconds;
    Quality q;
    q.availability = static_cast<double>(served_samples_) / (epochs * kUes);
    q.served_gbit = served_bits_ / 1e9;
    q.served_mbps_mean = served_bits_ / (static_cast<double>(kUes) * service_s) / 1e6;
    q.handovers = fleet_->total_handovers();
    return q;
  }

  bool restore_matches(double& restore_ms) const override {
    fleet::Fleet fresh(cfg_, channel_);
    populate(fresh);
    std::istringstream is(ckpt_);
    const auto t0 = Clock::now();
    fresh.restore(is);
    restore_ms = ms_since(t0);
    return fresh.state_hash() == fleet_->state_hash();
  }

 private:
  void populate(fleet::Fleet& f) const {
    const double pitch = kArea / kCellsPerSide;
    for (int iy = 0; iy < kCellsPerSide; ++iy)
      for (int ix = 0; ix < kCellsPerSide; ++ix)
        f.add_cell({pitch * (ix + 0.5), pitch * (iy + 0.5), 60.0});
    lte::TrafficSpec spec;
    spec.model = lte::TrafficModel::kCbr;
    for (std::size_t i = 0; i < kUes; ++i) {
      spec.rate_bps = rate_[i];
      f.add_ue(position(i, 0), spec);
    }
  }

  /// Seeded straight walk of kWalkM metres per epoch, reflected at the area
  /// edges: a pure function of (seed, ue, epoch).
  geo::Vec3 position(std::size_t ue, int epoch) const {
    const auto reflect = [](double x) {
      const double m = std::fmod(x, 2.0 * kArea);
      const double r = m < 0.0 ? m + 2.0 * kArea : m;
      return r <= kArea ? r : 2.0 * kArea - r;
    };
    const geo::Vec2 p = start_[ue] + heading_[ue] * (kWalkM * epoch);
    return {reflect(p.x), reflect(p.y), 1.5};
  }

  rf::FsplChannel channel_;
  fleet::FleetConfig cfg_;
  std::vector<geo::Vec2> start_;
  std::vector<geo::Vec2> heading_;
  std::vector<double> rate_;
  std::optional<fleet::Fleet> fleet_;
  fleet::FleetEpochReport last_;
  double served_bits_ = 0.0;
  std::uint64_t served_samples_ = 0;
};

// ---------------------------------------------------------------------------
// paper_loop: the paper's single-UAV session with PHY localization.

class PaperLoop final : public Workload {
 public:
  static constexpr int kUes = 8;
  static constexpr int kEpochs = 7;
  /// Like the paper's testbed, the campus map and the UE script are fixed;
  /// the seed drives the session's own randomness (localization flights,
  /// SRS noise, planner and service-traffic seeds). Eight UEs are too few
  /// for seeded deployments to average out: they would move every metric
  /// by 15-20% from seed to seed.
  static constexpr std::uint64_t kTestbedSeed = 2018;

  explicit PaperLoop(std::uint64_t seed) : sky_seed_(mix(seed ^ 0x5C7)) {
    wc_.terrain_kind = terrain::TerrainKind::kCampus;
    wc_.seed = kTestbedSeed;
    wc_.cell_size_m = 1.0;
    // UE script: a mixed-visibility deployment of which 30% relocate
    // between epochs.
    const sim::World world(wc_);
    std::vector<geo::Vec3> initial =
        mobility::deploy_mixed_visibility(world.terrain(), kUes, kTestbedSeed + 1);
    mobility::EpochRelocateMobility mob(world.terrain(), initial, 0.3, kTestbedSeed + 2);
    truth_.push_back(std::move(initial));
    for (int e = 1; e < kEpochs; ++e) {
      mob.relocate_epoch();
      truth_.push_back(mob.positions());
    }
  }

  int steps() const override { return kEpochs; }

  void setup(int lanes) override {
    cfg_.threads = lanes;
    sky_.reset();
    world_.reset();
    world_.emplace(wc_);
    world_->ue_positions() = truth_[0];
    sky_.emplace(*world_, cfg_, sky_seed_);
    save_ms_ = 0.0;
    reports_.clear();
  }

  void feed(int i) override { world_->ue_positions() = truth_[static_cast<std::size_t>(i)]; }

  std::uint64_t step(int) override {
    reports_.push_back(sky_->run_epoch());
    const auto t0 = Clock::now();
    std::ostringstream os;
    sky_->snapshot().save(os);
    ckpt_ = std::move(os).str();
    save_ms_ += ms_since(t0);
    return core::report_digest(reports_.back());
  }

  std::uint64_t final_digest() const override {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const core::EpochReport& r : reports_) h = mix(h ^ core::report_digest(r));
    return h;
  }

  Quality quality() const override {
    Quality q;
    std::vector<double> err;
    std::size_t served = 0;
    for (std::size_t e = 0; e < reports_.size(); ++e) {
      const core::EpochReport& r = reports_[e];
      const geo::Vec3 uav{r.position, r.altitude_m};
      for (std::size_t u = 0; u < truth_[e].size(); ++u) {
        err.push_back(r.estimated_ue_positions[u].dist(truth_[e][u].xy()));
        if (world_->snr_db(uav, truth_[e][u]) >= kServiceSinrDb) ++served;
      }
      q.served_gbit += r.traffic.served_bits / 1e9;
      q.served_mbps_mean += r.served_mean_throughput_bps / 1e6;
    }
    q.served_mbps_mean = ratio(q.served_mbps_mean, static_cast<double>(reports_.size()));
    q.availability = ratio(static_cast<double>(served), static_cast<double>(err.size()));
    q.loc_err_m_p50 = median(err);
    return q;
  }

  bool restore_matches(double& restore_ms) const override {
    sim::World world(wc_);
    core::SkyRan fresh(world, cfg_, sky_seed_);
    std::istringstream is(ckpt_);
    const auto t0 = Clock::now();
    fresh.restore(core::Snapshot::load(is));
    restore_ms = ms_since(t0);
    std::ostringstream os;
    fresh.snapshot().save(os);
    return std::move(os).str() == ckpt_;
  }

 private:
  std::uint64_t sky_seed_;
  sim::WorldConfig wc_;
  core::SkyRanConfig cfg_;
  std::vector<std::vector<geo::Vec3>> truth_;  ///< UE truth per epoch
  std::optional<sim::World> world_;
  std::optional<core::SkyRan> sky_;
  std::vector<core::EpochReport> reports_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "campaign_day") return std::make_unique<CampaignDay>(seed);
  if (name == "fleet_radio") return std::make_unique<FleetRadio>(seed);
  if (name == "paper_loop") return std::make_unique<PaperLoop>(seed);
  return nullptr;
}

}  // namespace perfbench

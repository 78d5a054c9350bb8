#include "localization/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "geo/contract.hpp"
#include "rf/units.hpp"

namespace skyran::localization {

std::vector<geo::Vec3> default_macro_sites(geo::Rect area, int count, double height_m) {
  expects(count >= 1, "default_macro_sites: need at least one site");
  // Sites ring the area (macro towers are rarely inside a small hotspot).
  std::vector<geo::Vec3> sites;
  const geo::Vec2 c = area.center();
  const double r = 0.75 * std::max(area.width(), area.height());
  for (int i = 0; i < count; ++i) {
    const double ang = 2.0 * M_PI * i / count + 0.4;
    sites.push_back({c.x + r * std::cos(ang), c.y + r * std::sin(ang), height_m});
  }
  return sites;
}

geo::Vec2 ecid_localize(geo::Vec3 serving_site, geo::Vec3 ue_true, geo::Rect area,
                        const EcidConfig& config, geo::Mt19937_64& rng) {
  // Scale a standard normal: normal_distribution(0, σ) requires σ > 0, and
  // σ = 0 (a noiseless TA) is allowed.
  std::normal_distribution<double> unit;
  const double range = serving_site.dist(ue_true) + config.ta_noise_m * unit(rng);
  // Quantize to the TA step and pick an unknown azimuth: with one omni cell
  // that's all E-CID knows.
  const double quantized =
      std::max(0.0, std::round(range / kTimingAdvanceStepM) * kTimingAdvanceStepM);
  std::uniform_real_distribution<double> azimuth(0.0, 2.0 * M_PI);
  const double a = azimuth(rng);
  const geo::Vec2 guess{serving_site.x + quantized * std::cos(a),
                        serving_site.y + quantized * std::sin(a)};
  return area.clamp(guess);
}

FingerprintDatabase::FingerprintDatabase(const rf::ChannelModel& channel,
                                         const rf::LinkBudget& budget,
                                         std::vector<geo::Vec3> sites, geo::Rect area,
                                         const FingerprintConfig& config, std::uint64_t seed)
    : channel_(channel), budget_(budget), sites_(std::move(sites)), config_(config) {
  expects(!sites_.empty(), "FingerprintDatabase: need at least one site");
  expects(config.grid_m > 0.0, "FingerprintDatabase: grid must be positive");
  geo::Mt19937_64 rng(seed);
  for (double y = area.min.y + config.grid_m / 2.0; y < area.max.y; y += config.grid_m) {
    for (double x = area.min.x + config.grid_m / 2.0; x < area.max.x; x += config.grid_m) {
      Entry e;
      e.position = {x, y};
      e.rss_dbm = measure(geo::Vec3{e.position, 1.5}, config.train_noise_db, rng);
      entries_.push_back(std::move(e));
    }
  }
}

std::vector<double> FingerprintDatabase::measure(geo::Vec3 ue, double noise_db,
                                                 geo::Mt19937_64& rng) const {
  std::normal_distribution<double> unit;  // noise_db may be 0: scale, see ecid_localize
  std::vector<double> rss;
  rss.reserve(sites_.size());
  for (const geo::Vec3& site : sites_)
    rss.push_back(budget_.rss_dbm(channel_.path_loss_db(site, ue)) + noise_db * unit(rng));
  return rss;
}

geo::Vec2 FingerprintDatabase::localize(geo::Vec3 ue_true, geo::Mt19937_64& rng) const {
  const std::vector<double> query = measure(ue_true, config_.query_noise_db, rng);
  // Weighted k-NN in RSS space.
  struct Scored {
    double d2;
    geo::Vec2 position;
  };
  std::vector<Scored> scored;
  scored.reserve(entries_.size());
  for (const Entry& e : entries_) {
    double d2 = 0.0;
    for (std::size_t s = 0; s < query.size(); ++s)
      d2 += (query[s] - e.rss_dbm[s]) * (query[s] - e.rss_dbm[s]);
    scored.push_back({d2, e.position});
  }
  const int k = std::min<int>(config_.k_neighbors, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const Scored& a, const Scored& b) { return a.d2 < b.d2; });
  geo::Vec2 sum{};
  double wsum = 0.0;
  for (int i = 0; i < k; ++i) {
    const double w = 1.0 / (1.0 + scored[static_cast<std::size_t>(i)].d2);
    sum += scored[static_cast<std::size_t>(i)].position * w;
    wsum += w;
  }
  return sum / wsum;
}

geo::Vec2 tdoa_localize(const std::vector<geo::Vec3>& sites, geo::Vec3 ue_true, geo::Rect area,
                        const TdoaConfig& config, geo::Mt19937_64& rng) {
  expects(sites.size() >= 3, "tdoa_localize: need at least 3 sites");
  // Observed arrival times: true ToF + per-site clock error + noise.
  // Either sigma may be 0: scale standard normals, see ecid_localize. One
  // distribution per term, because each caches the second value of its pair.
  const double sync_sigma_s = config.sync_error_ns * 1e-9;
  const double toa_sigma_s = config.toa_noise_ns * 1e-9;
  std::normal_distribution<double> sync;
  std::normal_distribution<double> toa;
  std::vector<double> arrival(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    // Named draws fix the order: the operands of sync(rng) + toa(rng) are
    // unsequenced, and the stream has always drawn the clock error first.
    const double clock_error_s = sync_sigma_s * sync(rng);
    const double toa_noise_s = toa_sigma_s * toa(rng);
    arrival[i] = sites[i].dist(ue_true) / rf::kSpeedOfLight + clock_error_s + toa_noise_s;
  }

  // Grid search on the squared TDoA residuals relative to site 0.
  geo::Vec2 best = area.center();
  double best_cost = std::numeric_limits<double>::infinity();
  for (int gy = 0; gy < config.grid; ++gy) {
    for (int gx = 0; gx < config.grid; ++gx) {
      const geo::Vec2 p{area.min.x + (gx + 0.5) / config.grid * area.width(),
                        area.min.y + (gy + 0.5) / config.grid * area.height()};
      const geo::Vec3 cand{p, ue_true.z};
      double cost = 0.0;
      const double d0 = sites[0].dist(cand);
      for (std::size_t i = 1; i < sites.size(); ++i) {
        const double model = (sites[i].dist(cand) - d0) / rf::kSpeedOfLight;
        const double obs = arrival[i] - arrival[0];
        cost += (model - obs) * (model - obs);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = p;
      }
    }
  }
  return best;
}

}  // namespace skyran::localization

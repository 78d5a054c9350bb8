#include "terrain/synth.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "geo/contract.hpp"
#include "geo/mt19937.hpp"
#include "geo/noise.hpp"

namespace skyran::terrain {

namespace {

using geo::Rect;
using geo::Vec2;

/// Stamp a rectangular clutter footprint onto the terrain.
void stamp_rect(Terrain& t, Rect footprint, Clutter kind, double height) {
  auto& grid = t.cells();
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    if (footprint.contains(grid.center_of(c))) {
      cell.clutter = kind;
      cell.clutter_height = static_cast<float>(height);
    }
  });
}

/// Gentle rolling ground from fractal noise, amplitude in meters.
void add_rolling_ground(Terrain& t, std::uint64_t seed, double amplitude, double scale) {
  const geo::ValueNoise noise(seed, scale, 3);
  auto& grid = t.cells();
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    const double h = (noise.sample(grid.center_of(c)) + 1.0) * 0.5 * amplitude;
    cell.ground = static_cast<float>(h);
  });
}

/// Fill cells where the noise field exceeds `threshold` with foliage whose
/// height varies smoothly around `mean_height`.
void add_forest(Terrain& t, std::uint64_t seed, double threshold, double mean_height,
                Rect within) {
  const geo::ValueNoise cover(seed, 28.0, 3);
  const geo::ValueNoise height(seed ^ 0xabcdULL, 15.0, 2);
  auto& grid = t.cells();
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    const Vec2 p = grid.center_of(c);
    if (!within.contains(p) || cell.clutter == Clutter::kBuilding) return;
    if (cover.sample(p) > threshold) {
      cell.clutter = Clutter::kFoliage;
      const double h = mean_height * (1.0 + 0.3 * height.sample(p));
      cell.clutter_height = static_cast<float>(std::max(2.0, h));
    }
  });
}

}  // namespace

const char* to_string(TerrainKind k) {
  switch (k) {
    case TerrainKind::kFlat:
      return "FLAT";
    case TerrainKind::kCampus:
      return "CAMPUS";
    case TerrainKind::kRural:
      return "RURAL";
    case TerrainKind::kNyc:
      return "NYC";
    case TerrainKind::kLarge:
      return "LARGE";
  }
  return "UNKNOWN";
}

double default_extent(TerrainKind k) {
  switch (k) {
    case TerrainKind::kFlat:
      return 250.0;
    case TerrainKind::kCampus:
      return 300.0;
    case TerrainKind::kRural:
    case TerrainKind::kNyc:
      return 250.0;
    case TerrainKind::kLarge:
      return 1000.0;
  }
  return 250.0;
}

Terrain make_terrain(TerrainKind kind, std::uint64_t seed, double cell_size) {
  switch (kind) {
    case TerrainKind::kFlat:
      return make_flat(default_extent(kind), cell_size);
    case TerrainKind::kCampus:
      return make_campus(seed, cell_size);
    case TerrainKind::kRural:
      return make_rural(seed, cell_size);
    case TerrainKind::kNyc:
      return make_nyc(seed, cell_size);
    case TerrainKind::kLarge:
      return make_large(seed, cell_size);
  }
  throw ContractViolation("make_terrain: unknown terrain kind");
}

Terrain make_flat(double extent, double cell_size) {
  return Terrain(Rect::square(extent), cell_size);
}

Terrain make_campus(std::uint64_t seed, double cell_size, double extent) {
  Terrain t(Rect::square(extent), cell_size);
  add_rolling_ground(t, seed, 3.0, 120.0);

  const double s = extent / 300.0;  // scale features with the area
  // Main office building (the paper's UE 6 sits "right beside a large office
  // building"): a 95x50 m slab, ~30 m tall, slightly north of center.
  stamp_rect(t, Rect{{108 * s, 148 * s}, {203 * s, 198 * s}}, Clutter::kBuilding, 30.0);
  // Two smaller annex buildings.
  stamp_rect(t, Rect{{70 * s, 95 * s}, {105 * s, 130 * s}}, Clutter::kBuilding, 14.0);
  stamp_rect(t, Rect{{215 * s, 120 * s}, {250 * s, 150 * s}}, Clutter::kBuilding, 10.0);
  // Heavily forested east/south strip with ~35 m trees (Sec 4.3, UE 7).
  add_forest(t, seed ^ 0x51ULL, -0.15, 35.0, Rect{{230 * s, 0.0}, {extent, extent}});
  add_forest(t, seed ^ 0x52ULL, 0.15, 30.0, Rect{{0.0, 0.0}, {extent, 70 * s}});
  // Scattered ornamental trees elsewhere.
  add_forest(t, seed ^ 0x53ULL, 0.62, 12.0, Rect{{0.0, 70 * s}, {230 * s, extent}});
  // Parking lot to the west stays open (UE 1's open space): clear it.
  stamp_rect(t, Rect{{10 * s, 160 * s}, {90 * s, 260 * s}}, Clutter::kOpen, 0.0);
  return t;
}

Terrain make_rural(std::uint64_t seed, double cell_size, double extent) {
  Terrain t(Rect::square(extent), cell_size);
  add_rolling_ground(t, seed, 6.0, 90.0);
  geo::Mt19937_64 rng(seed);
  // A few small farm buildings.
  std::uniform_real_distribution<double> pos(0.1 * extent, 0.9 * extent);
  std::uniform_real_distribution<double> dim(8.0, 18.0);
  std::uniform_real_distribution<double> hgt(4.0, 8.0);
  const int buildings = 5;
  for (int i = 0; i < buildings; ++i) {
    const Vec2 corner{pos(rng), pos(rng)};
    stamp_rect(t, Rect{corner, {std::min(extent, corner.x + dim(rng)),
                                std::min(extent, corner.y + dim(rng))}},
               Clutter::kBuilding, hgt(rng));
  }
  // Sparse tree stands.
  add_forest(t, seed ^ 0x61ULL, 0.45, 14.0, t.area());
  return t;
}

Terrain make_nyc(std::uint64_t seed, double cell_size, double extent) {
  Terrain t(Rect::square(extent), cell_size);
  // Manhattan grid: avenues run north-south every ~85 m, streets east-west
  // every ~65 m; blocks are filled with buildings of widely varying height.
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> height_pick(0.0, 1.0);

  const double avenue_pitch = 85.0;
  const double street_pitch = 65.0;
  const double road_width = 18.0;

  auto& grid = t.cells();
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    const Vec2 p = grid.center_of(c);
    const double ax = std::fmod(p.x, avenue_pitch);
    const double sy = std::fmod(p.y, street_pitch);
    const bool on_road = ax < road_width || sy < road_width;
    if (on_road) {
      cell.clutter = Clutter::kOpen;
      cell.clutter_height = 0.0F;
    } else {
      cell.clutter = Clutter::kBuilding;  // height assigned per block below
    }
  });

  // Assign one height per block so facades are coherent; downtown mix of
  // mid-rise (20-40 m) and high-rise (60-150 m) towers.
  const int blocks_x = static_cast<int>(extent / avenue_pitch) + 1;
  const int blocks_y = static_cast<int>(extent / street_pitch) + 1;
  std::vector<double> block_height(static_cast<std::size_t>(blocks_x * blocks_y));
  for (double& h : block_height) {
    const double u = height_pick(rng);
    h = (u < 0.6) ? 20.0 + 20.0 * height_pick(rng) : 60.0 + 90.0 * height_pick(rng);
  }
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    if (cell.clutter != Clutter::kBuilding) return;
    const Vec2 p = grid.center_of(c);
    const int bx = static_cast<int>(p.x / avenue_pitch);
    const int by = static_cast<int>(p.y / street_pitch);
    cell.clutter_height =
        static_cast<float>(block_height[static_cast<std::size_t>(by * blocks_x + bx)]);
  });

  // A small park (one block cleared) for open-space contrast.
  stamp_rect(t, Rect{{avenue_pitch * 1.0 + road_width, street_pitch * 2.0 + road_width},
                     {avenue_pitch * 2.0, street_pitch * 3.0}},
             Clutter::kOpen, 0.0);
  return t;
}

Terrain make_large(std::uint64_t seed, double cell_size, double extent) {
  Terrain t(Rect::square(extent), cell_size);
  add_rolling_ground(t, seed, 10.0, 300.0);
  geo::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);

  // Residential streets every 120 m; lots hold detached houses with yards.
  const double pitch = 120.0;
  const double road_width = 12.0;
  auto& grid = t.cells();
  grid.for_each([&](geo::CellIndex c, TerrainCell& cell) {
    const Vec2 p = grid.center_of(c);
    const bool on_road = std::fmod(p.x, pitch) < road_width || std::fmod(p.y, pitch) < road_width;
    if (on_road) {
      cell.clutter = Clutter::kOpen;
      cell.clutter_height = 0.0F;
    }
  });
  // Houses: small boxes scattered inside lots.
  const int houses = static_cast<int>(extent * extent / 4000.0);
  std::uniform_real_distribution<double> pos(0.0, extent - 16.0);
  for (int i = 0; i < houses; ++i) {
    const Vec2 corner{pos(rng), pos(rng)};
    if (std::fmod(corner.x, pitch) < road_width + 4.0 ||
        std::fmod(corner.y, pitch) < road_width + 4.0)
      continue;  // keep roads clear
    const double w = 8.0 + 6.0 * u01(rng);
    const double d = 8.0 + 6.0 * u01(rng);
    stamp_rect(t, Rect{corner, {corner.x + w, corner.y + d}}, Clutter::kBuilding,
               5.0 + 4.0 * u01(rng));
  }
  // A commercial strip of larger boxes along the middle avenue.
  for (int i = 0; i < 8; ++i) {
    const double x = extent * 0.45 + 10.0;
    const double y = 60.0 + i * 110.0;
    if (y + 40.0 > extent) break;
    stamp_rect(t, Rect{{x, y}, {x + 35.0, y + 40.0}}, Clutter::kBuilding, 12.0 + 6.0 * u01(rng));
  }
  // Wooded parks.
  add_forest(t, seed ^ 0x71ULL, 0.55, 18.0, t.area());
  return t;
}

}  // namespace skyran::terrain

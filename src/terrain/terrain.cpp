#include "terrain/terrain.hpp"

#include <algorithm>

#include "geo/contract.hpp"

namespace skyran::terrain {

Terrain::Terrain(geo::Rect area, double cell_size)
    : cells_(area, cell_size, TerrainCell{}) {}

double Terrain::ground_height(geo::Vec2 p) const {
  return cells_.value_at(cells_.area().clamp(p)).ground;
}

double Terrain::surface_height(geo::Vec2 p) const {
  const TerrainCell& c = cells_.value_at(cells_.area().clamp(p));
  return static_cast<double>(c.ground) + static_cast<double>(c.clutter_height);
}

Clutter Terrain::clutter_at(geo::Vec2 p) const {
  return cells_.value_at(cells_.area().clamp(p)).clutter;
}

double Terrain::max_surface_height() const {
  double best = 0.0;
  cells_.for_each([&](geo::CellIndex, const TerrainCell& c) {
    best = std::max(best, static_cast<double>(c.ground) + static_cast<double>(c.clutter_height));
  });
  return best;
}

double Terrain::clutter_fraction(Clutter kind) const {
  std::size_t n = 0;
  cells_.for_each([&](geo::CellIndex, const TerrainCell& c) {
    if (c.clutter == kind) ++n;
  });
  return static_cast<double>(n) / static_cast<double>(cells_.size());
}

const char* to_string(Clutter c) {
  switch (c) {
    case Clutter::kOpen:
      return "open";
    case Clutter::kBuilding:
      return "building";
    case Clutter::kFoliage:
      return "foliage";
    case Clutter::kWater:
      return "water";
  }
  return "unknown";
}

}  // namespace skyran::terrain

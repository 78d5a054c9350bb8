#include "terrain/terrain.hpp"

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

}  // namespace skyran::terrain

// Terrain substrate. The paper evaluates SkyRAN over a real campus and, for
// its scale-up study, over USGS LiDAR rasters pre-processed to 1 m spatial
// granularity (Sec 5.1). We model terrain as two co-registered rasters:
// ground elevation and clutter (buildings / foliage) with per-cell heights.
#pragma once

#include <cstdint>
#include <string>

#include "geo/grid.hpp"
#include "geo/rect.hpp"
#include "geo/vec.hpp"

namespace skyran::terrain {

/// What occupies the space above the ground surface in a cell.
enum class Clutter : std::uint8_t {
  kOpen = 0,      ///< nothing above ground (roads, lots, fields)
  kBuilding = 1,  ///< man-made structure; strong RF obstruction
  kFoliage = 2,   ///< trees / vegetation; moderate RF obstruction
  kWater = 3,     ///< open water; no vertical obstruction
};

/// One terrain raster cell.
struct TerrainCell {
  float ground = 0.0F;          ///< ground elevation above the area datum, m
  float clutter_height = 0.0F;  ///< height of clutter above ground, m
  Clutter clutter = Clutter::kOpen;
};

/// A rectangular patch of the world at fixed raster resolution.
class Terrain {
 public:
  Terrain() = default;

  /// Flat, open terrain covering `area` at `cell_size` meter resolution.
  Terrain(geo::Rect area, double cell_size);

  const geo::Grid2D<TerrainCell>& cells() const { return cells_; }
  geo::Grid2D<TerrainCell>& cells() { return cells_; }
  const geo::Rect& area() const { return cells_.area(); }
  double cell_size() const { return cells_.cell_size(); }

  /// Ground elevation at `p` (nearest cell), meters above datum.
  double ground_height(geo::Vec2 p) const;

  /// Top of the surface at `p`: ground plus any clutter, meters above datum.
  double surface_height(geo::Vec2 p) const;

  /// Clutter class at `p`.
  Clutter clutter_at(geo::Vec2 p) const;

 private:
  geo::Grid2D<TerrainCell> cells_;
};

}  // namespace skyran::terrain

// Open traveling-salesman tours through cluster heads (paper Step 6.4). A
// measurement flight starts wherever the UAV currently hovers and need not
// return, so we solve the open-path TSP: nearest-neighbor construction
// followed by 2-opt improvement.
#pragma once

#include <vector>

#include "geo/path.hpp"
#include "geo/vec.hpp"

namespace skyran::rem {

/// Order `nodes` into a short open tour starting at `start` (the start point
/// itself is prepended to the returned path). Deterministic.
geo::Path plan_tour(geo::Vec2 start, std::vector<geo::Vec2> nodes);

}  // namespace skyran::rem

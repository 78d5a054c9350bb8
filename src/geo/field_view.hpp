// FieldView<T>: a non-owning strided view over a dense raster with Grid2D's
// geometry (area, square cells, row-major layout). The REM bank stores many
// per-UE maps in one contiguous slab and hands consumers FieldViews instead
// of copies; anything written against Grid2D's accessor vocabulary (at,
// cell_of, center_of, same_geometry) works against a view unchanged.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "geo/grid.hpp"

namespace skyran::geo {

template <typename T>
class FieldView {
 public:
  using value_type = std::remove_const_t<T>;

  FieldView() = default;

  /// View over `nx * ny` row-major values at `data`, covering `area` with
  /// square cells of `cell_size` meters. The caller guarantees `data`
  /// outlives the view.
  FieldView(T* data, Rect area, double cell_size, int nx, int ny)
      : data_(data), area_(area), cell_size_(cell_size), nx_(nx), ny_(ny) {
    expects(data != nullptr, "FieldView: data must not be null");
    expects(cell_size > 0.0, "FieldView: cell size must be positive");
    expects(nx >= 1 && ny >= 1, "FieldView: grid must be non-empty");
  }

  /// View of an owning grid (read-only views accept const grids).
  template <typename U>
    requires std::is_same_v<std::remove_const_t<T>, U>
  FieldView(const Grid2D<U>& g)  // NOLINT(google-explicit-constructor)
    requires std::is_const_v<T>
      : FieldView(g.raw().data(), g.area(), g.cell_size(), g.nx(), g.ny()) {}
  template <typename U>
    requires std::is_same_v<T, U>
  FieldView(Grid2D<U>& g)  // NOLINT(google-explicit-constructor)
      : FieldView(g.raw().data(), g.area(), g.cell_size(), g.nx(), g.ny()) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t size() const {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  }
  double cell_size() const { return cell_size_; }
  const Rect& area() const { return area_; }
  T* data() const { return data_; }

  bool in_bounds(CellIndex c) const {
    return c.ix >= 0 && c.ix < nx_ && c.iy >= 0 && c.iy < ny_;
  }

  T& at(CellIndex c) const {
    expects(in_bounds(c), "FieldView::at: cell out of bounds");
    return data_[flat(c)];
  }
  T& at(int ix, int iy) const { return at(CellIndex{ix, iy}); }
  T& operator[](std::size_t flat_index) const { return data_[flat_index]; }

  /// Cell containing world point `p` (same clamping rule as Grid2D).
  CellIndex cell_of(Vec2 p) const {
    expects(area_.contains(p), "FieldView::cell_of: point outside view area");
    int ix = static_cast<int>((p.x - area_.min.x) / cell_size_);
    int iy = static_cast<int>((p.y - area_.min.y) / cell_size_);
    ix = ix < nx_ - 1 ? ix : nx_ - 1;
    iy = iy < ny_ - 1 ? iy : ny_ - 1;
    return {ix, iy};
  }

  Vec2 center_of(CellIndex c) const {
    expects(in_bounds(c), "FieldView::center_of: cell out of bounds");
    return {area_.min.x + (c.ix + 0.5) * cell_size_,
            area_.min.y + (c.iy + 0.5) * cell_size_};
  }

  const T& value_at(Vec2 p) const { return at(cell_of(p)); }

  /// Geometry equality against any grid-like type (Grid2D or FieldView).
  template <typename Other>
  bool same_geometry(const Other& other) const {
    return nx_ == other.nx() && ny_ == other.ny() &&
           std::abs(cell_size_ - other.cell_size()) < 1e-9 &&
           area_.min == other.area().min && area_.max == other.area().max;
  }

  /// Materialize an owning copy (row-major order preserved).
  Grid2D<value_type> to_grid() const {
    Grid2D<value_type> out(area_, cell_size_, value_type{});
    for (std::size_t i = 0; i < out.raw().size(); ++i) out.raw()[i] = data_[i];
    return out;
  }

 private:
  std::size_t flat(CellIndex c) const {
    return static_cast<std::size_t>(c.iy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(c.ix);
  }

  T* data_ = nullptr;
  Rect area_{};
  double cell_size_ = 1.0;
  int nx_ = 0;
  int ny_ = 0;
};

/// Convenience factories mirroring std::span's deduction ergonomics.
template <typename U>
FieldView<const U> view_of(const Grid2D<U>& g) {
  return FieldView<const U>(g);
}
template <typename U>
FieldView<U> view_of(Grid2D<U>& g) {
  return FieldView<U>(g);
}

/// Read-only views of a run of owning grids, in order; the grids must
/// outlive the views.
inline std::vector<FieldView<const double>> views_of(std::span<const Grid2D<double>> grids) {
  std::vector<FieldView<const double>> out;
  out.reserve(grids.size());
  for (const Grid2D<double>& g : grids) out.push_back(view_of(g));
  return out;
}

}  // namespace skyran::geo

// 2-D and 3-D vector types used throughout SkyRAN. Coordinates are in a local
// east-north-up (ENU) frame in meters, origin at the southwest corner of the
// operating area; z is altitude above the origin's ground level.
#pragma once

#include <cmath>
#include <ostream>

namespace skyran::geo {

struct Vec2 {
  double x = 0.0;  ///< east, meters
  double y = 0.0;  ///< north, meters

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  constexpr Vec2& operator-=(Vec2 o) { x -= o.x; y -= o.y; return *this; }
  constexpr Vec2& operator*=(double s) { x *= s; y *= s; return *this; }
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  constexpr double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }
  double dist(Vec2 o) const { return (*this - o).norm(); }

  /// Unit vector in the same direction; the zero vector maps to itself.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

struct Vec3 {
  double x = 0.0;  ///< east, meters
  double y = 0.0;  ///< north, meters
  double z = 0.0;  ///< up, meters

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}
  constexpr Vec3(Vec2 xy, double z_) : x(xy.x), y(xy.y), z(z_) {}

  constexpr Vec2 xy() const { return {x, y}; }

  constexpr Vec3 operator+(Vec3 o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(Vec3 o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3& operator+=(Vec3 o) { x += o.x; y += o.y; z += o.z; return *this; }
  constexpr bool operator==(const Vec3&) const = default;

  constexpr double dot(Vec3 o) const { return x * o.x + y * o.y + z * o.z; }
  constexpr double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }
  double dist(Vec3 o) const { return (*this - o).norm(); }

  Vec3 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec3{x / n, y / n, z / n} : Vec3{};
  }
};

constexpr Vec3 operator*(double s, Vec3 v) { return v * s; }

inline bool finite(Vec2 v) { return std::isfinite(v.x) && std::isfinite(v.y); }
inline bool finite(Vec3 v) { return finite(v.xy()) && std::isfinite(v.z); }

inline std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}
inline std::ostream& operator<<(std::ostream& os, Vec3 v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace skyran::geo

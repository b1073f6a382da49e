#pragma once

/// \file vec2.h
/// Plain 2-D vector / point value type used throughout the library.

#include <cmath>
#include <iosfwd>

#include "geom/tolerance.h"

namespace apf::geom {

/// A 2-D vector (also used as a point). Regular value type, no invariant.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double xx, double yy) : x(xx), y(yy) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  Vec2& operator-=(Vec2 o) { x -= o.x; y -= o.y; return *this; }
  Vec2& operator*=(double s) { x *= s; y *= s; return *this; }

  /// Exact (bitwise-value) equality. Use nearlyEqual for tolerant tests.
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// 2-D cross product (z-component of the 3-D cross product).
  constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }
  constexpr double norm2() const { return x * x + y * y; }
  double norm() const { return std::hypot(x, y); }

  /// Unit vector in the same direction. Undefined for the zero vector.
  Vec2 normalized() const {
    const double n = norm();
    return {x / n, y / n};
  }

  /// Counterclockwise perpendicular.
  constexpr Vec2 perp() const { return {-y, x}; }

  /// Rotation by `a` radians counterclockwise.
  Vec2 rotated(double a) const { return rotated(std::cos(a), std::sin(a)); }

  /// Rotation by the angle whose cosine is c and sine is s: rotated(a) is
  /// rotated(std::cos(a), std::sin(a)), bit for bit.
  constexpr Vec2 rotated(double c, double s) const {
    return {c * x - s * y, s * x + c * y};
  }

  /// Polar angle in [-pi, pi]; atan2 convention, undefined for zero vector.
  double arg() const { return std::atan2(y, x); }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

inline double dist(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Exactly `d.norm() <= t`, for every d and t, but decided from the squared
/// norm unless d lies within a relative 1e-12 band around t.
///
/// Why the fast path agrees with hypot: let u = 2^-53 and d2 = fl(x*x +
/// y*y). Each product and the sum round once (an FMA contraction rounds
/// once fewer), so |d2 - |d|^2| <= 2u|d|^2 (+ u^2 terms), plus at most
/// 2 * 2^-1074 when a product underflows; t*t*(1 -+ 1e-12) carries another
/// 2u relative. If d2 < t*t*(1 - 1e-12), then |d|^2 < t^2 (1 - 1e-12 + 5u),
/// so |d| < t (1 - 4.9e-13), and hypot, within 1 ulp of |d|, is < t.
/// Symmetrically d2 > t*t*(1 + 1e-12) gives hypot > t; a product that
/// overflows gives d2 = inf and |d| > 1e154 > t. For t in [1e-150, 1e150]
/// the band t^2 * 1e-12 >= 1e-312 dwarfs the underflow term and t*t
/// neither overflows nor goes subnormal. Every other t (0, negative,
/// tiny, huge, inf, NaN), a NaN d2, and d2 inside the band go to hypot.
inline bool normLeq(Vec2 d, double t) {
  if (t >= 1e-150 && t <= 1e150) {
    const double d2 = d.x * d.x + d.y * d.y;
    const double t2 = t * t;
    if (d2 < t2 * (1.0 - 1e-12)) return true;
    if (d2 > t2 * (1.0 + 1e-12)) return false;
  }
  return d.norm() <= t;
}

/// Tolerant point coincidence: dist(a, b) <= tol.dist.
inline bool nearlyEqual(Vec2 a, Vec2 b, const Tol& tol = kDefaultTol) {
  return normLeq(a - b, tol.dist);
}

/// Midpoint of the segment [a, b].
constexpr Vec2 midpoint(Vec2 a, Vec2 b) { return {(a.x + b.x) / 2, (a.y + b.y) / 2}; }

/// Point on the segment [a, b] at parameter t in [0, 1].
constexpr Vec2 lerp(Vec2 a, Vec2 b, double t) { return a + (b - a) * t; }

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace apf::geom

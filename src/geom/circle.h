#pragma once

/// \file circle.h
/// Circle value type and membership predicates.

#include "geom/tolerance.h"
#include "geom/vec2.h"

namespace apf::geom {

/// A circle given by center and radius. No invariant beyond radius >= 0.
struct Circle {
  Vec2 center;
  double radius = 0.0;

  constexpr bool operator==(const Circle&) const = default;

  /// True when p is inside or on the circle (tolerant).
  bool contains(Vec2 p, const Tol& tol = kDefaultTol) const {
    return normLeq(p - center, radius + tol.dist);
  }

  /// True when p lies on the circumference (tolerant).
  bool onBoundary(Vec2 p, const Tol& tol = kDefaultTol) const {
    return distEq(dist(p, center), radius, tol);
  }

  /// Point on the circumference at direction angle `a` (radians, ccw from +x).
  Vec2 at(double a) const {
    return {center.x + radius * std::cos(a), center.y + radius * std::sin(a)};
  }
};

}  // namespace apf::geom

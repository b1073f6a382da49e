#pragma once

/// \file transform.h
/// Similarity transforms of the plane: rotation + uniform scale + optional
/// reflection + translation. These model both (a) a robot's private local
/// coordinate frame relative to the global frame (unknown North, unknown
/// chirality, unknown unit length) and (b) the pattern-similarity relation
/// A ~ B of the paper.

#include "geom/vec2.h"

namespace apf::geom {

/// A direct or indirect similarity of the plane.
///
/// Applies as  p  ->  scale * R(angle) * M * p + offset,
/// where M is a reflection across the x-axis when `reflect` is true and the
/// identity otherwise. `scale` must be positive.
class Similarity {
 public:
  Similarity() = default;
  Similarity(double angle, double scale, bool reflect, Vec2 offset);

  /// Identity transform.
  static Similarity identity() { return {}; }
  static Similarity translation(Vec2 t) { return {0.0, 1.0, false, t}; }
  static Similarity rotation(double angle) { return {angle, 1.0, false, {}}; }
  static Similarity scaling(double s) { return {0.0, s, false, {}}; }
  /// Reflection across the x-axis.
  static Similarity mirrorX() { return {0.0, 1.0, true, {}}; }

  Vec2 apply(Vec2 p) const { return applyLinear(p) + offset_; }
  /// Applies only the linear part (no translation); maps directions.
  /// Vec2::rotated(angle), with its cos and sin taken once in the
  /// constructor, so the result has the same bits.
  Vec2 applyLinear(Vec2 v) const {
    const Vec2 m = reflect_ ? Vec2{v.x, -v.y} : v;
    return m.rotated(cos_, sin_) * scale_;
  }

  /// Composition: (a * b).apply(p) == a.apply(b.apply(p)).
  friend Similarity operator*(const Similarity& a, const Similarity& b);

  Similarity inverse() const;

  double angle() const { return angle_; }
  double scale() const { return scale_; }
  bool reflects() const { return reflect_; }
  Vec2 offset() const { return offset_; }

 private:
  double angle_ = 0.0;
  double cos_ = 1.0;  ///< std::cos(angle_)
  double sin_ = 0.0;  ///< std::sin(angle_)
  double scale_ = 1.0;
  bool reflect_ = false;
  Vec2 offset_{};
};

}  // namespace apf::geom

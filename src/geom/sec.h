#pragma once

/// \file sec.h
/// Smallest enclosing circle (Welzl's algorithm) and the "holds C(P)"
/// predicate from the paper.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "geom/circle.h"
#include "geom/vec2.h"

namespace apf::geom {

/// Smallest enclosing circle of the points. Expected O(n) time (randomized
/// Welzl with move-to-front). The points are visited in the order
/// std::shuffle gives under a fixed seed; that permutation depends only on
/// n, so it is built once per size per thread and replayed, and the result
/// is a pure function of the input. Returns a zero circle for an empty input.
Circle smallestEnclosingCircle(std::span<const Vec2> pts);

/// smallestEnclosingCircle carried from call to call on a point set that
/// changes a little between calls: a robot's snapshot from Look to Look,
/// the engine's live robots from move to move. It keeps Welzl's last circle
/// and its basis, and returns that circle again without running Welzl when
/// a certificate proves Welzl would return it, bit for bit (the argument
/// is at SecCarry::certify in sec.cpp).
class SecCarry {
 public:
  /// smallestEnclosingCircle(pts), bit for bit.
  Circle of(std::span<const Vec2> pts);
  /// True when the last of() returned the carried circle unchanged.
  bool certified() const { return certified_; }

  /// Certificate margins: every non-basis point lies within
  /// (1 - kDepth) R of the center, every angle of a 3-point basis has a
  /// cosine of at least kMinCos, and R is at least kMinRadius.
  static constexpr double kDepth = 1e-6;
  static constexpr double kMinCos = 1e-2;
  static constexpr double kMinRadius = 1e-4;

 private:
  bool certify(std::span<const Vec2> pts) const;

  Circle circle_;
  std::size_t n_ = 0;
  std::size_t basisSize_ = 0;  ///< 2 or 3 when certifiable, else 0
  /// The basis' input indices and points; a 2-point basis repeats its
  /// second entry in the third slot.
  std::array<std::size_t, 3> index_{};
  std::array<Vec2, 3> point_{};
  double inner2_ = 0.0;  ///< (R (1 - kDepth))^2
  bool certified_ = false;
};

/// True when point index `i` "holds" the smallest enclosing circle of `pts`:
/// removing it changes C(P). Per the paper, only points on the circumference
/// can hold the circle, and a point holds it iff the SEC of the remaining
/// points is different (smaller).
bool holdsSec(std::span<const Vec2> pts, std::size_t i,
              const Tol& tol = kDefaultTol);

/// holdsSec with the smallest enclosing circle of `pts` already known
/// (`whole` must be exactly smallestEnclosingCircle(pts), e.g. a memoized
/// Configuration::sec()): the same answer without recomputing it.
bool holdsSec(std::span<const Vec2> pts, std::size_t i, const Circle& whole,
              const Tol& tol = kDefaultTol);

/// Indices of all points that hold the smallest enclosing circle.
std::vector<std::size_t> secHolders(std::span<const Vec2> pts,
                                    const Tol& tol = kDefaultTol);

}  // namespace apf::geom

#pragma once

/// \file sec.h
/// Smallest enclosing circle (Welzl's algorithm) and the "holds C(P)"
/// predicate from the paper.

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

#pragma once

/// \file angle.h
/// Angle arithmetic helpers.
///
/// The paper manipulates angles ang(u, v, w) in [0, 2pi) with a
/// context-dependent orientation, and angmin(u, v, w) in [0, pi) as the
/// minimum over both orientations. These helpers implement that vocabulary.

#include <numbers>

#include "geom/vec2.h"

namespace apf::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Normalize an angle to [0, 2pi).
double norm2pi(double a);

/// Normalize an angle to (-pi, pi].
double normPi(double a);

/// Counterclockwise angle from ray (v -> u) to ray (v -> w), in [0, 2pi).
/// Undefined when u == v or w == v.
double angCcw(Vec2 u, Vec2 v, Vec2 w);

/// Minimum angle between rays (v -> u) and (v -> w), in [0, pi].
/// This is the paper's angmin(u, v, w).
double angMin(Vec2 u, Vec2 v, Vec2 w);

/// Minimum angular distance between two direction angles, in [0, pi].
double angDist(double a, double b);

}  // namespace apf::geom

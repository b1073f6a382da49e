#pragma once

/// \file dpf.h
/// psi_DPF — deterministic pattern formation without chirality (paper §4).
///
/// Precondition: a selected robot r_s exists (psi_RSB's postcondition).
/// Three phases, each entered when every earlier phase's condition holds:
///
///  1. createGlobalCoordinateSystem — establish a unique robot rmax in
///     P - {r_s} that is (i) at minimum radius, (ii) angularly closest to
///     r_s, (iii) no further out than fmax, and (iv) within half of
///     theta_F' of r_s. The polar system Z is centered at c(P), angle 0
///     toward rmax, oriented to maximize r_s's angular coordinate. Both
///     orientations are computable by every robot, so no chirality is
///     needed — this is the paper's central trick.
///  2. Per-circle placement — for each circle C_i of F' (decreasing
///     radius): cleanExterior pulls stray robots onto C_i, then
///     locateEnoughRobots fills it, then removeRobotsInExcess parks extras
///     strictly between C_i and C_i+1 (with a regular-polygon dance on C_1
///     to keep C(P) invariant). A pre-phase clears robots off rmax's ray
///     and fixEnclosingCircle handles the special case of exactly two
///     pattern points on C(F).
///  3. rotateRobotOnCircle — robots rotate along their circles to their
///     rank-matched destinations, never crossing angle 0, halving the
///     distance to any blocker (deadlock-free: the waiting relation is
///     acyclic on a cut circle).
///
/// The final move (r_s walks to f_s) is the main algorithm's line 3-4 and
/// lives in form_pattern.cpp.
///
/// Every rule reads one polar table per snapshot: each robot's radius and
/// argument (P's memoized polar table at the origin) and Z-angle are
/// computed once, and each circle's robots are collected and sorted once.
///
/// Deviations from the paper's pseudo-code are deliberate and documented in
/// DESIGN.md: staging angles on C_m are clamped to 2*pi - theta_F' (the
/// paper's 2*pi - ang(rs,c,rmax) clamp is too weak to keep rmax the unique
/// angularly-closest robot to r_s), and distances/centers use the SEC
/// center throughout.

#include <optional>

#include "core/analysis.h"
#include "sim/algorithm.h"

namespace apf::core {

/// Computes self's psi_DPF action. Precondition: analysis ok, a selected
/// robot exists, and the final-move condition does not hold.
sim::Action dpfCompute(Analysis& a);

}  // namespace apf::core

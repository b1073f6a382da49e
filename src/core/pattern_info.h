#pragma once

/// \file pattern_info.h
/// Cached analysis of the target pattern F. The pattern is immutable for
/// the lifetime of a run, and every robot receives the same coordinate
/// list, so all F-side computations (the normalized F, c(F), views, the
/// removed point f_s, the orientation anchor fmax, theta_F', the circle
/// decomposition, each F - {f}, the center-multiplicity analysis of
/// Appendix C) are computed once per distinct pattern and
/// shared: core::Analysis reads them by reference. The cache is keyed by
/// the exact bits of the raw pattern a snapshot carries, plus the
/// multiplicity flag, so two patterns that differ in any bit never share an
/// entry (thread-local: one simulation per thread).

#include <cstdint>
#include <optional>
#include <vector>

#include "config/configuration.h"
#include "core/multiplicity.h"

namespace apf::core {

struct PatternInfo {
  /// Appendix C, looked up only with multiplicity detection on:
  /// analyzeCenterMultiplicity(pattern). When it is set, every other field
  /// describes F~ (its fTilde) instead of the pattern itself: the robots
  /// form F~ first.
  std::optional<CenterMultiplicity> centerMultiplicity;
  /// Normalized pattern (unit SEC at origin), with sec() computed: bit for
  /// bit pattern.transformed(pattern.normalizingTransform()).
  config::Configuration f;
  /// c(F): config::centerOf(f). F is normalized, but a regular pattern's
  /// grid center may differ from the origin.
  geom::Vec2 centerF;
  /// True when the pattern analysis is usable (|F| >= 4, non-degenerate).
  bool valid = false;

  double lF = 0.0;  ///< second-closest ring distance from the SEC center
  std::vector<std::size_t> maxViewNonHolders;
  /// f.without(maxViewNonHolders[k]) for each k, with sec() computed.
  std::vector<config::Configuration> fWithout;
  /// Distances from f's SEC center over its radius, ascending, and the
  /// same for each fWithout[k]: bit for bit the radii findSimilarity
  /// compares first when F or F - {f_k} is one of its two sides.
  std::vector<double> radii;
  std::vector<std::vector<double>> fWithoutRadii;

  // --- DPF decomposition ---
  std::size_t fs = 0;          ///< removed max-view non-holder
  config::Configuration fPrime;  ///< F - {fs}
  std::size_t fmax = 0;        ///< max-view point of F' (index into fPrime)
  double fmaxRadius = 0.0;
  double fmaxArg = 0.0;
  double thetaFPrime = 0.0;
  double fOrient = 1.0;  ///< -1 when fmax's maximizing view is clockwise

  struct Polar {
    double radius;
    double angle;
  };
  /// F' in the Z-polar embedding (angle 0 = fmax's ray, fOrient applied).
  std::vector<Polar> targets;
  /// Distinct target radii, descending, with per-circle counts.
  std::vector<double> circleRadii;
  std::vector<int> circleCounts;
  /// Target angles on each circle, ascending: the targets of the circle's
  /// run of radii, so circleTargets[ci].size() == circleCounts[ci].
  std::vector<std::vector<double>> circleTargets;

  /// Cached lookup of a raw (unnormalized) pattern; computes on first use
  /// per distinct pattern. The reference stays valid until the thread's
  /// cache exceeds its bound and is cleared by a later miss.
  static const PatternInfo& get(const config::Configuration& pattern,
                                bool multiplicity);
};

}  // namespace apf::core

#pragma once

/// \file configuration.h
/// A configuration P: the multiset of robot positions at some instant,
/// expressed in some coordinate frame (global or a robot's local frame).

#include <cstdint>
#include <span>
#include <vector>

#include "geom/circle.h"
#include "geom/sec.h"
#include "geom/transform.h"
#include "geom/vec2.h"

namespace apf::config {

using geom::Circle;
using geom::Similarity;
using geom::Tol;
using geom::Vec2;

/// A point together with its multiplicity (>= 1).
struct MultiPoint {
  Vec2 pos;
  int count = 1;
};

/// Hit/miss counters for Configuration's memoized geometry (sec() and
/// weberPoint()), plus exact work counts of the configuration kernels.
/// Thread-local — campaign workers are thread-confined, so a per-run delta
/// of these counters is deterministic for any APF_JOBS (the engine folds
/// the four cache fields into sim::Metrics; tests/work_gate_test.cpp pins
/// the rest). Each update is a non-atomic integer add, a few per kernel
/// call; loops tally locally and add once.
struct GeomCacheCounters {
  std::uint64_t secHits = 0;
  std::uint64_t secMisses = 0;
  std::uint64_t weberHits = 0;
  std::uint64_t weberMisses = 0;

  std::uint64_t axesCalls = 0;          ///< symmetryAxes
  std::uint64_t axesCandidates = 0;     ///< candidate axes it filtered
  std::uint64_t reflectionsTried = 0;   ///< reflectionMapsToSelf
  std::uint64_t symmetricityCalls = 0;  ///< symmetricity
  std::uint64_t rotationsTried = 0;     ///< rotationMapsToSelf
  std::uint64_t regularCalls = 0;       ///< regularSetOf
  std::uint64_t regularPrefixes = 0;    ///< view-class prefixes it checked
  std::uint64_t shiftedCalls = 0;       ///< shiftedRegularSetOf
  std::uint64_t shiftVerifies = 0;      ///< shifted candidates verified
  std::uint64_t viewsBuilt = 0;         ///< localView / allViews entries
  std::uint64_t similarityCalls = 0;    ///< findSimilarity
  std::uint64_t similarityTransforms = 0;  ///< rotations matched against B
  /// Gauss-Newton fits run (pre-rejected assignments are not counted)
  std::uint64_t gridFits = 0;
};

/// This thread's counters (mutable; reset by assigning {}).
GeomCacheCounters& geomCacheCounters();

/// True when some pair of points lies within tol of each other. Exactly the
/// boolean `Configuration(pts).hasMultiplicity(tol)` computes (see the proof
/// at Configuration::hasMultiplicity), but allocation-free and early-exit.
/// The engine's safety monitor needs only the pairs that include the robot
/// that moved; this full O(n^2) scan over the live robots is the slow check
/// it is tested against (tests/safety_monitor_test.cpp).
bool hasCoincidentPair(std::span<const Vec2> pts,
                       const Tol& tol = geom::kDefaultTol);

/// A configuration of robot positions. Positions are stored in a stable
/// order (index = robot identity inside the simulator; algorithms must not
/// rely on indices, they are anonymous from the algorithm's viewpoint).
/// Multiplicity points are represented by repeated positions.
///
/// The smallest enclosing circle and the Weber point (geometric median) are
/// memoized: `sec()` computes Welzl once, `weberPoint()` runs Weiszfeld
/// once, and every mutation (non-const operator[], push_back, assign,
/// releasePoints) invalidates both caches. Because the caches are filled
/// lazily from const methods, a Configuration instance is NOT safe to share
/// across threads unless the caches it will serve are warmed (call `sec()` /
/// `weberPoint()` once) before the instance becomes shared — after warming,
/// concurrent const access is read-only. Campaign workers (sim/campaign.h)
/// therefore operate on their own copies; copies carry the warmed caches
/// with them. See docs/PERFORMANCE.md.
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Vec2> pts) : pts_(std::move(pts)) {}

  Configuration(const Configuration&) = default;
  Configuration& operator=(const Configuration&) = default;
  // Moves transfer the caches and reset the source's: the moved-from object
  // has an empty point set, which a stale cached circle would misdescribe.
  Configuration(Configuration&& o) noexcept
      : pts_(std::move(o.pts_)),
        secCache_(o.secCache_),
        weberCache_(o.weberCache_),
        secValid_(o.secValid_),
        weberValid_(o.weberValid_) {
    o.secValid_ = false;
    o.weberValid_ = false;
  }
  Configuration& operator=(Configuration&& o) noexcept {
    pts_ = std::move(o.pts_);
    secCache_ = o.secCache_;
    weberCache_ = o.weberCache_;
    secValid_ = o.secValid_;
    weberValid_ = o.weberValid_;
    o.secValid_ = false;
    o.weberValid_ = false;
    return *this;
  }

  std::size_t size() const { return pts_.size(); }
  bool empty() const { return pts_.empty(); }
  const std::vector<Vec2>& points() const { return pts_; }
  std::span<const Vec2> span() const { return pts_; }
  const Vec2& operator[](std::size_t i) const { return pts_[i]; }
  /// Mutable access conservatively invalidates the geometry caches: the
  /// caller may write through the reference.
  Vec2& operator[](std::size_t i) {
    secValid_ = false;
    weberValid_ = false;
    return pts_[i];
  }
  void push_back(Vec2 p) {
    secValid_ = false;
    weberValid_ = false;
    pts_.push_back(p);
  }

  /// Replace the point set wholesale, adopting `pts`'s storage. Invalidates
  /// both geometry caches. Pairs with releasePoints() so a caller that
  /// refreshes a Configuration every cycle (the engine's snapshot path) can
  /// recycle one vector's capacity instead of allocating each time.
  void assign(std::vector<Vec2> pts) {
    secValid_ = false;
    weberValid_ = false;
    pts_ = std::move(pts);
  }

  /// Move the point storage out, leaving this configuration empty (and both
  /// caches invalid, since an empty set invalidates them by definition).
  std::vector<Vec2> releasePoints() {
    secValid_ = false;
    weberValid_ = false;
    return std::move(pts_);
  }

  /// Smallest enclosing circle C(P). Memoized; O(n) expected on the first
  /// call after a mutation, O(1) afterwards.
  Circle sec() const {
    auto& counters = geomCacheCounters();
    if (!secValid_) {
      ++counters.secMisses;
      secCache_ = geom::smallestEnclosingCircle(pts_);
      secValid_ = true;
    } else {
      ++counters.secHits;
    }
    return secCache_;
  }

  /// Weber point (geometric median) of P. Memoized like sec(): Weiszfeld
  /// runs once per mutation generation, O(1) afterwards. The paper's
  /// embedding target for patterns with an invariant center.
  Vec2 weberPoint() const;

  /// Distinct positions with multiplicities (tolerant grouping). Order is
  /// first-occurrence order.
  std::vector<MultiPoint> grouped(const Tol& tol = geom::kDefaultTol) const;

  /// True when some position appears more than once (tolerant).
  bool hasMultiplicity(const Tol& tol = geom::kDefaultTol) const;

  /// The configuration with point index i removed.
  Configuration without(std::size_t i) const;

  /// The configuration mapped through a similarity transform.
  Configuration transformed(const Similarity& t) const;

  /// Similarity transform that maps this configuration's SEC to the unit
  /// circle at the origin (translation + scaling only; no rotation, so the
  /// result depends on the source frame's orientation as the model demands).
  Similarity normalizingTransform() const;

  /// Distance from p to the closest point of the configuration.
  double distanceTo(Vec2 p) const;

 private:
  std::vector<Vec2> pts_;
  mutable Circle secCache_;
  mutable Vec2 weberCache_;
  mutable bool secValid_ = false;
  mutable bool weberValid_ = false;
};

/// lP: the distance to `center` of the second-closest distinct distance ring.
/// Matches the paper's l_P (used via l_F on the pattern): with distances
/// d1 <= d2 <= ... to the center, returns the second smallest *distinct*
/// value (or d1 when all are equal / only one point).
double secondClosestDistance(const Configuration& p, Vec2 center,
                             const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config

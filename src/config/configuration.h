#pragma once

/// \file configuration.h
/// A configuration P: the multiset of robot positions at some instant,
/// expressed in some coordinate frame (global or a robot's local frame).

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <utility>
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
  std::size_t index = 0;  ///< the group's first point; pos is its position
};

/// The polar coordinates of a configuration's points around one center c,
/// in point order: radius[i] = geom::dist(p[i], c), arg[i] = (p[i] - c).arg()
/// in [-pi, pi], and dir[i] = geom::norm2pi(arg[i]) in [0, 2pi).
struct PolarTable {
  std::vector<double> radius;
  std::vector<double> arg;
  std::vector<double> dir;
};

/// Hit/miss counters for Configuration's memoized geometry (sec(),
/// weberPoint() and polar()), plus exact work counts of the configuration
/// kernels. Thread-local — campaign workers are thread-confined, so a
/// per-run delta of these counters is deterministic for any APF_JOBS (the
/// engine folds the sec and weber fields into sim::Metrics;
/// tests/work_gate_test.cpp pins all of them). Each update is a non-atomic
/// integer add, a few per kernel call; loops tally locally and add once.
struct GeomCacheCounters {
  std::uint64_t secHits = 0;
  std::uint64_t secMisses = 0;
  std::uint64_t weberHits = 0;
  std::uint64_t weberMisses = 0;
  std::uint64_t polarHits = 0;
  std::uint64_t polarMisses = 0;

  std::uint64_t axesCalls = 0;          ///< symmetryAxes
  std::uint64_t axesCandidates = 0;     ///< candidate axes it filtered
  std::uint64_t reflectionsTried = 0;   ///< reflectionMapsToSelf
  std::uint64_t symmetricityCalls = 0;  ///< symmetricity
  std::uint64_t rotationsTried = 0;     ///< rotationMapsToSelf
  std::uint64_t regularCalls = 0;       ///< regularSetOf
  std::uint64_t regularPrefixes = 0;    ///< view-class prefixes it checked
  std::uint64_t shiftedCalls = 0;       ///< shiftedRegularSetOf
  std::uint64_t shiftVerifies = 0;      ///< shifted candidates verified
  /// shiftedRegularSetOf calls its certificate pass answered (nullopt)
  std::uint64_t shiftCertified = 0;
  std::uint64_t viewsBuilt = 0;         ///< views built by any view call
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
/// Three geometries are memoized: `sec()` computes Welzl once,
/// `weberPoint()` runs Weiszfeld once, and `polar(c)` builds each center's
/// PolarTable once. Every mutation (non-const operator[], push_back,
/// assign, releasePoints) drops all three. Because the caches are filled
/// lazily from const methods, a Configuration instance is NOT safe to share
/// across threads unless the caches it will serve are warmed (call `sec()`,
/// `weberPoint()` or `polar(c)` once) before the instance becomes shared —
/// after warming, concurrent const access is read-only. Campaign workers
/// (sim/campaign.h) therefore operate on their own copies; copies carry the
/// warmed caches with them, moves hand them over. See docs/PERFORMANCE.md.
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Vec2> pts) : pts_(std::move(pts)) {}

  std::size_t size() const { return pts_.size(); }
  bool empty() const { return pts_.empty(); }
  const std::vector<Vec2>& points() const { return pts_; }
  std::span<const Vec2> span() const { return pts_; }
  const Vec2& operator[](std::size_t i) const { return pts_[i]; }
  /// Mutable access conservatively invalidates the geometry caches: the
  /// caller may write through the reference.
  Vec2& operator[](std::size_t i) {
    memo_.clear();
    return pts_[i];
  }
  void push_back(Vec2 p) {
    memo_.clear();
    pts_.push_back(p);
  }

  /// Replace the point set wholesale, adopting `pts`'s storage. Invalidates
  /// the geometry caches. Pairs with releasePoints() so a caller that
  /// refreshes a Configuration every cycle (the engine's snapshot path) can
  /// recycle one vector's capacity instead of allocating each time.
  void assign(std::vector<Vec2> pts) {
    memo_.clear();
    pts_ = std::move(pts);
  }

  /// Move the point storage out, leaving this configuration empty (and the
  /// caches invalid, since an empty set invalidates them by definition).
  std::vector<Vec2> releasePoints() {
    memo_.clear();
    return std::move(pts_);
  }

  /// Smallest enclosing circle C(P). Memoized; O(n) expected on the first
  /// call after a mutation, O(1) afterwards.
  Circle sec() const;

  /// Weber point (geometric median) of P. Memoized like sec(): Weiszfeld
  /// runs once per mutation generation, O(1) afterwards. The paper's
  /// embedding target for patterns with an invariant center.
  Vec2 weberPoint() const;

  /// The points' polar coordinates around `c`. Memoized per center, keyed
  /// by c's bit pattern: +0.0 and -0.0 centers get separate tables, since
  /// (q - c).arg() can differ between them. The reference stays valid and
  /// unchanged until the next mutation, whatever other centers are asked
  /// for meanwhile.
  const PolarTable& polar(Vec2 c) const;

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

 private:
  /// The three caches. A copy keeps them; a move hands them over and
  /// empties the source, whose point set a stale cache would misdescribe.
  struct Memo {
    std::optional<Circle> sec;
    std::optional<Vec2> weber;
    /// (center, table) pairs; list nodes never move, so handles stay valid.
    std::list<std::pair<Vec2, PolarTable>> polar;

    Memo() = default;
    Memo(const Memo&) = default;
    Memo& operator=(const Memo&) = default;
    Memo(Memo&& o) noexcept : Memo() { *this = std::move(o); }
    Memo& operator=(Memo&& o) noexcept {
      sec = o.sec;
      weber = o.weber;
      polar = std::move(o.polar);
      o.clear();
      return *this;
    }
    void clear() {
      sec.reset();
      weber.reset();
      polar.clear();
    }
  };

  std::vector<Vec2> pts_;
  mutable Memo memo_;
};

/// lP: the distance to `center` of the second-closest distinct distance ring.
/// Matches the paper's l_P (used via l_F on the pattern): with distances
/// d1 <= d2 <= ... to the center, returns the second smallest *distinct*
/// value (or d1 when all are equal / only one point).
double secondClosestDistance(const Configuration& p, Vec2 center,
                             const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config

#include "config/configuration.h"

#include <algorithm>
#include <bit>

#include "geom/angle.h"
#include "geom/weber.h"

namespace apf::config {

GeomCacheCounters& geomCacheCounters() {
  thread_local GeomCacheCounters counters;
  return counters;
}

bool hasCoincidentPair(std::span<const Vec2> pts, const Tol& tol) {
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (geom::nearlyEqual(pts[i], pts[j], tol)) return true;
    }
  }
  return false;
}

std::vector<MultiPoint> Configuration::grouped(const Tol& tol) const {
  std::vector<MultiPoint> out;
  out.reserve(pts_.size());
  for (std::size_t i = 0; i < pts_.size(); ++i) {
    const Vec2 p = pts_[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const MultiPoint& m) {
      return geom::nearlyEqual(m.pos, p, tol);
    });
    if (it == out.end()) {
      out.push_back({p, 1, i});
    } else {
      ++it->count;
    }
  }
  return out;
}

bool Configuration::hasMultiplicity(const Tol& tol) const {
  // Equivalent to grouped(tol).size() != pts_.size(), but allocation-free
  // and early-exit. Equivalence: grouped() shrinks exactly when some point
  // joins an earlier representative it is nearlyEqual to — i.e. when a
  // coincident pair exists. Conversely if pts_[i] ~ pts_[j] (i < j), then at
  // j's turn either pts_[i] is a representative (j joins it) or pts_[i]
  // itself joined an earlier one (the set already shrank). Either way both
  // predicates flip together, so the booleans agree for every tol.
  return hasCoincidentPair(pts_, tol);
}

Circle Configuration::sec() const {
  auto& counters = geomCacheCounters();
  if (!memo_.sec) {
    ++counters.secMisses;
    memo_.sec = secCarry_.of(pts_);
    if (secCarry_.certified()) ++counters.secCertified;
  } else {
    ++counters.secHits;
  }
  return *memo_.sec;
}

Vec2 Configuration::weberPoint() const {
  auto& counters = geomCacheCounters();
  if (!memo_.weber) {
    ++counters.weberMisses;
    memo_.weber = geom::weberPoint(pts_);
  } else {
    ++counters.weberHits;
  }
  return *memo_.weber;
}

namespace {

std::pair<std::uint64_t, std::uint64_t> bits(Vec2 v) {
  return {std::bit_cast<std::uint64_t>(v.x), std::bit_cast<std::uint64_t>(v.y)};
}

/// Entry j of the polar table around c: q's radius, arg and dir.
void setPolar(PolarTable& t, std::size_t j, Vec2 q, Vec2 c) {
  t.radius[j] = geom::dist(q, c);
  t.arg[j] = (q - c).arg();
  t.dir[j] = geom::norm2pi(t.arg[j]);
}

void resizePolar(PolarTable& t, std::size_t n) {
  t.radius.resize(n);
  t.arg.resize(n);
  t.dir.resize(n);
}

/// Restores t.byRadius after the entries `moved` (ascending indices) were
/// recomputed: the other entries keep their relative order, so dropping
/// the moved ones from the old order and merging them back, sorted, gives
/// the (radius, index) order of the whole table. An empty old order (a new
/// table or a new point count) comes with every index in `moved`.
void repairRadiusOrder(PolarTable& t, std::vector<std::size_t>& moved) {
  if (moved.empty()) return;
  const auto less = [&t](std::size_t a, std::size_t b) {
    return t.radius[a] < t.radius[b] || (t.radius[a] == t.radius[b] && a < b);
  };
  thread_local std::vector<char> isMoved;
  thread_local std::vector<std::size_t> merged;
  isMoved.assign(t.radius.size(), 0);
  for (std::size_t j : moved) isMoved[j] = 1;
  std::sort(moved.begin(), moved.end(), less);
  merged.clear();
  auto next = moved.begin();
  for (std::size_t j : t.byRadius) {
    if (isMoved[j]) continue;
    while (next != moved.end() && less(*next, j)) merged.push_back(*next++);
    merged.push_back(j);
  }
  merged.insert(merged.end(), next, moved.end());
  t.byRadius.swap(merged);
}

}  // namespace

void Configuration::DeleteNormalized::operator()(const Configuration* c) const {
  delete c;
}

const PolarTable& Configuration::polar(Vec2 c) const {
  auto& counters = geomCacheCounters();
  for (const auto& [center, table] : memo_.polar) {
    if (bits(center) == bits(c)) {
      ++counters.polarHits;
      return table;
    }
  }
  ++counters.polarMisses;
  PolarTable& t = memo_.polar.emplace_back(c, PolarTable{}).second;
  resizePolar(t, pts_.size());
  for (std::size_t j = 0; j < pts_.size(); ++j) setPolar(t, j, pts_[j], c);
  return t;
}

const Configuration& Configuration::normalized() const {
  const Similarity np = normalizingTransform();
  if (!normalized_) normalized_.reset(new Configuration);
  Configuration& q = *normalized_;
  // Keep only the origin table (the front node), then refresh it.
  auto& tables = q.memo_.polar;
  q.memo_.sec.reset();
  q.memo_.weber.reset();
  if (tables.empty()) tables.emplace_back(Vec2{}, PolarTable{});
  tables.erase(std::next(tables.begin()), tables.end());
  PolarTable& t = tables.front().second;
  const std::size_t n = pts_.size();
  // A changed point count recomputes every entry and the whole order.
  const std::size_t kept = q.pts_.size() == n ? n : 0;
  q.pts_.resize(n);
  resizePolar(t, n);
  thread_local std::vector<std::size_t> moved;
  moved.clear();
  for (std::size_t j = 0; j < n; ++j) {
    const Vec2 v = np.apply(pts_[j]);
    if (j < kept && bits(v) == bits(q.pts_[j])) continue;
    q.pts_[j] = v;
    setPolar(t, j, v, Vec2{});
    moved.push_back(j);
  }
  if (kept == 0) t.byRadius.clear();
  repairRadiusOrder(t, moved);
  return q;
}

Configuration Configuration::without(std::size_t i) const {
  std::vector<Vec2> rest;
  rest.reserve(pts_.size() - 1);
  for (std::size_t j = 0; j < pts_.size(); ++j) {
    if (j != i) rest.push_back(pts_[j]);
  }
  return Configuration(std::move(rest));
}

Configuration Configuration::transformed(const Similarity& t) const {
  std::vector<Vec2> out;
  out.reserve(pts_.size());
  for (const Vec2& p : pts_) out.push_back(t.apply(p));
  return Configuration(std::move(out));
}

Similarity Configuration::normalizingTransform() const {
  return normalizingTransformOf(sec());
}

Similarity normalizingTransformOf(const Circle& c) {
  const double s = (c.radius > 0.0) ? 1.0 / c.radius : 1.0;
  // p -> (p - center) * s
  return Similarity(0.0, s, false, Vec2{-c.center.x * s, -c.center.y * s});
}

double secondClosestDistance(const Configuration& p, Vec2 center,
                             const Tol& tol) {
  std::vector<double> ds = p.polar(center).radius;
  std::sort(ds.begin(), ds.end());
  if (ds.empty()) return 0.0;
  for (double d : ds) {
    if (!geom::distEq(d, ds.front(), tol)) return d;
  }
  return ds.front();
}

}  // namespace apf::config

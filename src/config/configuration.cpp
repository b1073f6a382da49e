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
    memo_.sec = geom::smallestEnclosingCircle(pts_);
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

const PolarTable& Configuration::polar(Vec2 c) const {
  auto& counters = geomCacheCounters();
  auto bits = [](Vec2 v) {
    return std::pair(std::bit_cast<std::uint64_t>(v.x),
                     std::bit_cast<std::uint64_t>(v.y));
  };
  for (const auto& [center, table] : memo_.polar) {
    if (bits(center) == bits(c)) {
      ++counters.polarHits;
      return table;
    }
  }
  ++counters.polarMisses;
  PolarTable& t = memo_.polar.emplace_back(c, PolarTable{}).second;
  t.radius.reserve(pts_.size());
  t.arg.reserve(pts_.size());
  t.dir.reserve(pts_.size());
  for (const Vec2& q : pts_) {
    t.radius.push_back(geom::dist(q, c));
    t.arg.push_back((q - c).arg());
    t.dir.push_back(geom::norm2pi(t.arg.back()));
  }
  return t;
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
  const Circle c = sec();
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

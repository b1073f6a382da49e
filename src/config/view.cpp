#include "config/view.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {

std::int64_t viewQuantize(double x) {
  return std::llround(x / kViewQuantum);
}

int compareViews(const View& a, const View& b) {
  if (a.atCenter != b.atCenter) return a.atCenter ? 1 : -1;
  if (a.key != b.key) return a.key < b.key ? -1 : 1;
  return 0;
}

namespace {

// Polar coordinates are (radius, angle) — radius FIRST, as in the paper's
// "r is at coordinate (1, 0)". Radii are normalized by |r|, so a robot
// closer to the center sees every other robot with a larger radial
// coordinate and its sorted sequence is lexicographically greater: the
// innermost robots have the greatest views. (Property 2's proof and the
// election algorithm both rely on exactly this.)
struct Entry {
  std::int64_t rho;
  std::int64_t theta;
  std::int64_t count;
  auto operator<=>(const Entry&) const = default;
};

// `entries` come in nondecreasing rho order (see viewsOf), so sorting each
// run of equal rho sorts the whole sequence: the key is the flattened
// (rho, theta, count) sort, bit for bit.
std::vector<std::int64_t> flatten(std::vector<Entry>& entries) {
  for (auto run = entries.begin(); run != entries.end();) {
    const auto end = std::find_if(run + 1, entries.end(), [&](const Entry& e) {
      return e.rho != run->rho;
    });
    std::sort(run, end);
    run = end;
  }
  std::vector<std::int64_t> key;
  key.reserve(entries.size() * 3);
  for (const Entry& e : entries) {
    key.push_back(e.rho);
    key.push_back(e.theta);
    key.push_back(e.count);
  }
  return key;
}

// Robot i's view from p's grouping, sorted by radius, and its polar table.
// Both are view-independent, so viewsOf computes them once for all the
// views it builds (O(n^2) for all views instead of O(n^2) *per view* with
// grouped()'s quadratic scan inside).
View viewOf(std::size_t i, const std::vector<MultiPoint>& byRadius,
            const PolarTable& t, bool withMultiplicity, const Tol& tol) {
  const double rDist = t.radius[i];
  if (rDist <= tol.dist) return View{{}, 0, true};
  const double rArg = t.arg[i];

  std::array<std::vector<Entry>, 2> seqs;  // [0] = ccw, [1] = cw
  seqs[0].reserve(byRadius.size());
  seqs[1].reserve(byRadius.size());
  const std::int64_t full = viewQuantize(geom::kTwoPi);
  for (const MultiPoint& g : byRadius) {
    const double d = t.radius[g.index];
    const std::int64_t rho = viewQuantize(d / rDist);
    const std::int64_t count = withMultiplicity ? g.count : 1;
    double rel = 0.0;
    if (d > tol.dist) rel = geom::norm2pi(t.arg[g.index] - rArg);
    // ccw orientation measures rel; cw measures the opposite sweep. Both are
    // quantized from doubles (not derived by integer subtraction) so the
    // arithmetic mirrors exactly what a reflected frame would compute.
    const double relCw = (rel == 0.0) ? 0.0 : geom::kTwoPi - rel;
    const std::int64_t tCcw = viewQuantize(rel) % full;
    const std::int64_t tCw = viewQuantize(relCw) % full;
    seqs[0].push_back({rho, tCcw, count});
    seqs[1].push_back({rho, tCw, count});
  }

  std::vector<std::int64_t> keyCcw = flatten(seqs[0]);
  std::vector<std::int64_t> keyCw = flatten(seqs[1]);
  if (keyCcw == keyCw) return View{std::move(keyCcw), 0, false};
  if (keyCcw > keyCw) return View{std::move(keyCcw), +1, false};
  return View{std::move(keyCw), -1, false};
}

/// The views of `subset`'s robots, in subset order, from one grouping and
/// one polar table.
std::vector<View> viewsOf(const Configuration& p,
                          std::span<const std::size_t> subset, Vec2 center,
                          bool withMultiplicity, const Tol& tol) {
  geomCacheCounters().viewsBuilt += subset.size();
  // Every view lists the groups in this one radius order. Its rho
  // coordinate viewQuantize(d / rDist) is then nondecreasing: division
  // rounds correctly, so d1 <= d2 gives d1 / rDist <= d2 / rDist, and
  // llround keeps <=. So flatten only sorts runs of equal rho; groups of
  // equal radius may come in any order, since they share a run.
  auto groups = p.grouped(tol);
  const PolarTable& t = p.polar(center);
  std::sort(groups.begin(), groups.end(),
            [&](const MultiPoint& a, const MultiPoint& b) {
              return t.radius[a.index] < t.radius[b.index];
            });
  std::vector<View> out;
  out.reserve(subset.size());
  for (std::size_t i : subset) {
    out.push_back(viewOf(i, groups, t, withMultiplicity, tol));
  }
  return out;
}

std::vector<std::size_t> indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

}  // namespace

View localView(const Configuration& p, std::size_t i, Vec2 center,
               bool withMultiplicity, const Tol& tol) {
  return viewsOf(p, {&i, 1}, center, withMultiplicity, tol).front();
}

std::vector<View> allViews(const Configuration& p, Vec2 center,
                           bool withMultiplicity, const Tol& tol) {
  return viewsOf(p, indices(p.size()), center, withMultiplicity, tol);
}

std::vector<std::size_t> byViewDescending(const std::vector<View>& views) {
  std::vector<std::size_t> idx = indices(views.size());
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return compareViews(views[a], views[b]) > 0;
  });
  return idx;
}

std::vector<std::size_t> maxViewRobots(const Configuration& p, Vec2 center,
                                       bool withMultiplicity, const Tol& tol) {
  return maxViewRobots(p, indices(p.size()), center, withMultiplicity, tol);
}

std::vector<std::size_t> maxViewRobots(const Configuration& p,
                                       std::span<const std::size_t> subset,
                                       Vec2 center, bool withMultiplicity,
                                       const Tol& tol) {
  const auto views = viewsOf(p, subset, center, withMultiplicity, tol);
  // compareViews is a total preorder, so "no view is greater" is "equal to
  // the greatest".
  std::size_t best = 0;
  for (std::size_t k = 1; k < views.size(); ++k) {
    if (compareViews(views[k], views[best]) > 0) best = k;
  }
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < views.size(); ++k) {
    if (compareViews(views[k], views[best]) == 0) out.push_back(subset[k]);
  }
  return out;
}

}  // namespace apf::config

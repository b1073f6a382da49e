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

// Group g's (ccw, cw) entries in the view of the robot at polar table
// radius rDist and arg rArg.
std::array<Entry, 2> entriesOf(const MultiPoint& g, double rDist, double rArg,
                               const PolarTable& t, bool withMultiplicity,
                               const Tol& tol) {
  const std::int64_t full = viewQuantize(geom::kTwoPi);
  const double d = t.radius[g.index];
  const std::int64_t rho = viewQuantize(d / rDist);
  const std::int64_t count = withMultiplicity ? g.count : 1;
  double rel = 0.0;
  if (d > tol.dist) rel = geom::norm2pi(t.arg[g.index] - rArg);
  // ccw orientation measures rel; cw measures the opposite sweep. Both are
  // quantized from doubles (not derived by integer subtraction) so the
  // arithmetic mirrors exactly what a reflected frame would compute.
  const double relCw = (rel == 0.0) ? 0.0 : geom::kTwoPi - rel;
  return {Entry{rho, viewQuantize(rel) % full, count},
          Entry{rho, viewQuantize(relCw) % full, count}};
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
  for (const MultiPoint& g : byRadius) {
    const auto [ccw, cw] =
        entriesOf(g, rDist, rArg, t, withMultiplicity, tol);
    seqs[0].push_back(ccw);
    seqs[1].push_back(cw);
  }

  std::vector<std::int64_t> keyCcw = flatten(seqs[0]);
  std::vector<std::int64_t> keyCw = flatten(seqs[1]);
  if (keyCcw == keyCw) return View{std::move(keyCcw), 0, false};
  if (keyCcw > keyCw) return View{std::move(keyCcw), +1, false};
  return View{std::move(keyCw), -1, false};
}

// The key's head: its first (rho, theta, count) triple. flatten sorts
// each run of equal rho, so a sequence starts with the least entry of its
// first run, the groups nearest the center. The key is the greater of the
// ccw and cw sequences, and the first triple that differs decides between
// them, so the head is the greater of the two runs' least entries.
Entry headOf(std::size_t i, const std::vector<MultiPoint>& byRadius,
             const PolarTable& t, bool withMultiplicity, const Tol& tol) {
  const double rDist = t.radius[i];
  const double rArg = t.arg[i];
  auto [ccw, cw] = entriesOf(byRadius.front(), rDist, rArg, t,
                             withMultiplicity, tol);
  for (std::size_t k = 1; k < byRadius.size(); ++k) {
    const auto [a, b] =
        entriesOf(byRadius[k], rDist, rArg, t, withMultiplicity, tol);
    if (a.rho != ccw.rho) break;
    ccw = std::min(ccw, a);
    cw = std::min(cw, b);
  }
  return std::max(ccw, cw);
}

// p's groups in ascending radius order around the table's center. Every
// view lists the groups in this one order. Its rho coordinate
// viewQuantize(d / rDist) is then nondecreasing: division rounds
// correctly, so d1 <= d2 gives d1 / rDist <= d2 / rDist, and llround keeps
// <=. So flatten only sorts runs of equal rho; groups of equal radius may
// come in any order, since they share a run.
std::vector<MultiPoint> byRadius(const Configuration& p, const PolarTable& t,
                                 const Tol& tol) {
  auto groups = p.grouped(tol);
  std::sort(groups.begin(), groups.end(),
            [&](const MultiPoint& a, const MultiPoint& b) {
              return t.radius[a.index] < t.radius[b.index];
            });
  return groups;
}

/// The views of `subset`'s robots, in subset order, from one grouping and
/// one polar table.
std::vector<View> viewsOf(const Configuration& p,
                          std::span<const std::size_t> subset, Vec2 center,
                          bool withMultiplicity, const Tol& tol) {
  geomCacheCounters().viewsBuilt += subset.size();
  const PolarTable& t = p.polar(center);
  const auto groups = byRadius(p, t, tol);
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

std::vector<View> headFirstViews(const Configuration& p, Vec2 center,
                                 bool withMultiplicity, const Tol& tol) {
  const PolarTable& t = p.polar(center);
  const auto groups = byRadius(p, t, tol);
  std::vector<View> out(p.size());
  std::vector<std::pair<Entry, std::size_t>> heads;
  heads.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (t.radius[i] <= tol.dist) {
      out[i].atCenter = true;
    } else {
      heads.push_back({headOf(i, groups, t, withMultiplicity, tol), i});
    }
  }
  // Two keys with different heads compare as their heads do, so only the
  // robots in a run of equal heads need their full keys.
  std::sort(heads.begin(), heads.end());
  std::uint64_t built = 0;
  for (auto run = heads.begin(); run != heads.end();) {
    const auto end = std::find_if(run + 1, heads.end(), [&](const auto& h) {
      return h.first != run->first;
    });
    if (end - run == 1) {
      const Entry& h = run->first;
      out[run->second].key = {h.rho, h.theta, h.count};
    } else {
      for (auto it = run; it != end; ++it) {
        out[it->second] = viewOf(it->second, groups, t, withMultiplicity, tol);
      }
      built += static_cast<std::uint64_t>(end - run);
    }
    run = end;
  }
  geomCacheCounters().viewsBuilt += built;
  return out;
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

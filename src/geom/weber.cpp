#include "geom/weber.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "geom/angle.h"

namespace apf::geom {

Vec2 weberPoint(std::span<const Vec2> pts, int maxIter, double tol) {
  if (pts.empty()) return {};
  if (pts.size() == 1) return pts[0];
  Vec2 x{};
  for (const Vec2& p : pts) x += p;
  x = x / static_cast<double>(pts.size());

  for (int it = 0; it < maxIter; ++it) {
    Vec2 num{};
    double den = 0.0;
    Vec2 pull{};  // sum of unit vectors toward points not at x
    bool atPoint = false;
    for (const Vec2& p : pts) {
      const double d = dist(x, p);
      if (d < 1e-15) {
        atPoint = true;
        continue;
      }
      num += p / d;
      den += 1.0 / d;
      pull += (p - x) / d;
    }
    if (den == 0.0) return x;  // all points coincide with x
    Vec2 next = num / den;
    if (atPoint) {
      // Vardi-Zhang: x coincides with an input point; it is the median iff
      // |pull| <= 1, otherwise step along pull.
      const double r = pull.norm();
      if (r <= 1.0) return x;
      const double step = (r - 1.0) / den;
      next = x + pull * (step / r);
    }
    if (dist(next, x) < tol) return next;
    x = next;
  }
  return x;
}

double AngularGrid::rayDir(int k) const {
  const double pairSum = alpha + beta;
  return norm2pi(theta0 + pairSum * (k / 2) + (k % 2 ? alpha : 0.0));
}

double gridResidual(const AngularGrid& g, Vec2 p, int k) {
  return normPi((p - g.center).arg() - g.rayDir(k));
}

namespace {

/// Solves the n x n linear system A x = b in place (partial pivoting).
/// Returns false when A is singular.
template <int N>
bool solve(std::array<std::array<double, N>, N>& a, std::array<double, N>& b,
           std::array<double, N>& x) {
  for (int col = 0; col < N; ++col) {
    int pivot = col;
    for (int r = col + 1; r < N; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-14) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (int r = col + 1; r < N; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < N; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = N - 1; r >= 0; --r) {
    double s = b[r];
    for (int c = r + 1; c < N; ++c) s -= a[r][c] * x[c];
    x[r] = s / a[r][r];
  }
  return true;
}

}  // namespace

std::optional<GridFit> fitAngularGrid(std::span<const Vec2> pts,
                                      std::span<const int> rayIndex,
                                      int numRays, bool biangular,
                                      const AngularGrid& init) {
  AngularGrid g = init;
  g.numRays = numRays;
  if (!biangular) {
    g.alpha = g.beta = kTwoPi / numRays;
  } else {
    g.beta = 2.0 * kTwoPi / numRays - g.alpha;
  }

  constexpr int kMaxIter = 60;
  const int nParams = biangular ? 4 : 3;
  double prevSse = std::numeric_limits<double>::infinity();

  for (int it = 0; it < kMaxIter; ++it) {
    // Accumulate normal equations J^T J dx = -J^T r for parameters
    // (cx, cy, theta0 [, alpha]).
    std::array<std::array<double, 4>, 4> jtj{};
    std::array<double, 4> jtr{};
    double sse = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Vec2 d = pts[i] - g.center;
      const double rho2 = d.norm2();
      if (rho2 < 1e-24) return std::nullopt;  // point on center: degenerate
      const int k = rayIndex[i];
      const double res = gridResidual(g, pts[i], k);
      sse += res * res;
      std::array<double, 4> row{d.y / rho2, -d.x / rho2, -1.0, 0.0};
      if (biangular) {
        // d rayDir / d alpha: gap pattern contributes (k/2) from pairSum's
        // alpha (pairSum = alpha + beta, beta = const - alpha cancels) plus
        // 1 when k is odd. pairSum is fixed, so only the odd-k term remains.
        row[3] = (k % 2) ? -1.0 : 0.0;
      }
      for (int r = 0; r < nParams; ++r) {
        jtr[r] += row[r] * res;
        for (int c = 0; c < nParams; ++c) jtj[r][c] += row[r] * row[c];
      }
    }
    if (sse > prevSse * 4.0 + 1e-9) return std::nullopt;  // diverging
    prevSse = sse;

    std::array<double, 4> step{};
    bool solved = false;
    if (biangular) {
      solved = solve<4>(jtj, jtr, step);
    } else {
      std::array<std::array<double, 3>, 3> a{};
      std::array<double, 3> b{}, x{};
      for (int r = 0; r < 3; ++r) {
        b[r] = jtr[r];
        for (int c = 0; c < 3; ++c) a[r][c] = jtj[r][c];
      }
      solved = solve<3>(a, b, x);
      for (int r = 0; r < 3; ++r) step[r] = x[r];
    }
    if (!solved) return std::nullopt;

    g.center -= Vec2{step[0], step[1]};
    g.theta0 -= step[2];
    if (biangular) {
      g.alpha -= step[3];
      g.beta = 2.0 * kTwoPi / numRays - g.alpha;
      if (g.alpha <= 0.0 || g.beta <= 0.0) return std::nullopt;
    }

    const double stepNorm = std::sqrt(step[0] * step[0] + step[1] * step[1] +
                                      step[2] * step[2] + step[3] * step[3]);
    if (stepNorm < 1e-14) break;
  }

  g.theta0 = norm2pi(g.theta0);
  double maxRes = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    maxRes = std::max(maxRes, std::fabs(gridResidual(g, pts[i], rayIndex[i])));
  }
  return GridFit{g, maxRes};
}

/// Why a true verdict is exact. Let g be a grid with a finite center c
/// whose computed residuals are all <= angTol, and h = numRays / 2. Ray
/// k + h of g is ray k turned by pi, up to rounding: an equiangular grid
/// adds h steps of 2*pi/numRays, and a bi-angled one with 4 | numRays adds
/// h/2 steps of alpha + beta = 4*pi/numRays at the same parity. So for a on
/// ray k and b on ray k + h, the angle a-c-b is pi - phi with
/// phi <= 2 (angTol + kAngRounding). kAngRounding = 1e-12 covers, a hundred
/// times over, the ~1e-14 rad that atan2, the rayDir sums, norm2pi and the
/// subtraction in gridResidual can round by. The angle at c is obtuse, so
/// |b - a| >= max(|a - c|, |b - c|), and c lies within
/// |a - c| |b - c| sin(phi) / |b - a| <= |b - a| phi = delta
/// of line(a, b). For any point x and two lines at angle theta,
/// |x - c| <= (dist(x, L1) + dist(c, L1) + dist(x, L2) + dist(c, L2)) /
/// |sin theta|, so every pair line L has dist(x, L) <= delta_L + R with
/// R = (delta_1 + dist(x, L1) + delta_2 + dist(x, L2)) / |sin theta|. A line
/// farther from x rules g out. x is the computed crossing of the two lines
/// that cross widest; the bound holds for any x, so x's own rounding shows
/// up in dist(x, L1) and dist(x, L2) and is paid for there.
///
/// Rounding of the test itself, with u = 2^-53 and D the largest
/// |x - a|_1 + |b - a| over the pair lines: each line's unit direction is
/// within 4u of the exact one, so a computed distance (or delta) is within
/// 10u D of the exact one, |sin theta| within 8u, and R within
/// 10u (2D + R) / |sin theta|. The margin m = 1e-12 (D + R) / |sin theta|
/// is hundreds of times their sum at any coordinate scale. When |sin theta|
/// is too small for that (below ~1e-12), m exceeds every distance and
/// nothing is rejected.
bool gridFitRuledOut(std::span<const Vec2> pts, std::span<const int> rayIndex,
                     int numRays, bool biangular, double angTol) {
  constexpr double kAngRounding = 1e-12;
  const double slack = angTol + kAngRounding;
  if (numRays % 2 != 0 || (biangular && numRays % 4 != 0)) return false;
  if (!(slack < kPi / 8.0)) return false;  // keeps the angle at c obtuse

  thread_local std::vector<int> onRay;
  onRay.assign(static_cast<std::size_t>(numRays), -1);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (rayIndex[i] < 0 || rayIndex[i] >= numRays) return false;
    onRay[static_cast<std::size_t>(rayIndex[i])] = static_cast<int>(i);
  }

  struct PairLine {
    Vec2 a;        ///< the point on ray k
    Vec2 u;        ///< unit direction from a to the point b on ray k + h
    double delta;  ///< bound on the center's distance from the line
    double len;    ///< |b - a|
  };
  thread_local std::vector<PairLine> lines;
  lines.clear();
  const int h = numRays / 2;
  for (int k = 0; k < h; ++k) {
    const int i = onRay[static_cast<std::size_t>(k)];
    const int j = onRay[static_cast<std::size_t>(k + h)];
    if (i < 0 || j < 0) continue;
    const Vec2 a = pts[static_cast<std::size_t>(i)];
    const Vec2 v = pts[static_cast<std::size_t>(j)] - a;
    const double len = v.norm();
    if (!(len > 0.0)) return false;  // coincident pair: no line
    lines.push_back({a, v / len, 2.0 * slack * len, len});
  }
  if (lines.size() < 3) return false;

  std::size_t l1 = 0, l2 = 0;
  double sinTheta = 0.0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double s = std::fabs(lines[i].u.cross(lines[j].u));
      if (s > sinTheta) {
        sinTheta = s;
        l1 = i;
        l2 = j;
      }
    }
  }
  if (!(sinTheta > 0.0)) return false;  // all lines parallel

  const PairLine& p1 = lines[l1];
  const PairLine& p2 = lines[l2];
  const Vec2 x = p1.a + p1.u * ((p2.a - p1.a).cross(p2.u) / p1.u.cross(p2.u));
  auto offset = [&](const PairLine& l) {
    return std::fabs(l.u.cross(x - l.a));
  };
  const double r = (p1.delta + offset(p1) + p2.delta + offset(p2)) / sinTheta;
  double d = 0.0;
  for (const PairLine& l : lines) {
    d = std::max(d, std::fabs(x.x - l.a.x) + std::fabs(x.y - l.a.y) + l.len);
  }
  const double margin = 1e-12 * (d + r) / sinTheta;
  return std::any_of(lines.begin(), lines.end(), [&](const PairLine& l) {
    return offset(l) > l.delta + r + margin;
  });
}

}  // namespace apf::geom

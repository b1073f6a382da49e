#include "config/generator.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {

Configuration randomConfiguration(std::size_t n, Rng& rng, double radius,
                                  double minSeparation) {
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.0, 1.0);
  Configuration out;
  int attempts = 0;
  while (out.size() < n) {
    const double a = uang(rng);
    const double r = radius * std::sqrt(urad(rng));
    const Vec2 p{r * std::cos(a), r * std::sin(a)};
    const auto& pts = out.points();
    const bool crowded = std::any_of(pts.begin(), pts.end(), [&](Vec2 q) {
      return geom::normLeq(p - q, minSeparation);
    });
    if (!crowded) {
      out.push_back(p);
      attempts = 0;
    } else if (++attempts > 10000) {
      // Separation unsatisfiable at this density; relax it.
      minSeparation /= 2.0;
      attempts = 0;
    }
  }
  return out;
}

Configuration regularPolygon(std::size_t m, double radius, Vec2 center,
                             double phase) {
  std::vector<double> radii(m, radius);
  return equiangularSet(radii, center, phase);
}

Configuration equiangularSet(std::span<const double> radii, Vec2 center,
                             double phase) {
  const std::size_t m = radii.size();
  Configuration out;
  for (std::size_t k = 0; k < m; ++k) {
    const double a = phase + geom::kTwoPi * static_cast<double>(k) /
                                 static_cast<double>(m);
    out.push_back(center + Vec2{std::cos(a), std::sin(a)} * radii[k]);
  }
  return out;
}

Configuration biangularSet(std::size_t m, double alpha,
                           std::span<const double> radii, Vec2 center,
                           double phase) {
  const double pairSum = 2.0 * geom::kTwoPi / static_cast<double>(m);
  Configuration out;
  double a = phase;
  for (std::size_t k = 0; k < m; ++k) {
    out.push_back(center + Vec2{std::cos(a), std::sin(a)} * radii[k]);
    a += (k % 2 == 0) ? alpha : pairSum - alpha;
  }
  return out;
}

Configuration symmetricConfiguration(int rho, int rings, Rng& rng,
                                     double radius) {
  std::uniform_real_distribution<double> uphase(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.3, 1.0);
  Configuration out;
  for (int ring = 0; ring < rings; ++ring) {
    const double r = radius * urad(rng) * (1.0 + ring);
    const double phase = uphase(rng);
    for (int k = 0; k < rho; ++k) {
      const double a = phase + geom::kTwoPi * k / rho;
      out.push_back(Vec2{std::cos(a), std::sin(a)} * r);
    }
  }
  return out;
}

Configuration axialConfiguration(int pairs, int onAxis, Rng& rng,
                                 double radius) {
  // Axis: the y-axis. Mirror pairs at (+-x, y); axis points at (0, y).
  std::uniform_real_distribution<double> ux(0.3, 1.0);
  std::uniform_real_distribution<double> uy(-1.0, 1.0);
  Configuration out;
  for (int k = 0; k < pairs; ++k) {
    const double x = radius * ux(rng) * (1.0 + 0.5 * k);
    const double y = radius * uy(rng) * (1.0 + 0.5 * k);
    out.push_back({x, y});
    out.push_back({-x, y});
  }
  for (int k = 0; k < onAxis; ++k) {
    out.push_back({0.0, radius * uy(rng) * (2.0 + k)});
  }
  return out;
}

Configuration randomPattern(std::size_t n, Rng& rng, double radius) {
  return randomConfiguration(n, rng, radius, radius * 5e-3);
}

}  // namespace apf::config

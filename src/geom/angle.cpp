#include "geom/angle.h"

#include <cmath>

namespace apf::geom {

double norm2pi(double a) {
  // fmod(a, kTwoPi) is a itself when |a| < kTwoPi (fmod is exact and the
  // quotient truncates to 0, keeping a's sign and so a -0.0), so that call
  // is skipped there. NaN and |a| >= kTwoPi take fmod.
  double r = std::fabs(a) < kTwoPi ? a : std::fmod(a, kTwoPi);
  if (r < 0) r += kTwoPi;
  // fmod can return kTwoPi - ulp noise after the correction; clamp.
  if (r >= kTwoPi) r = 0.0;
  return r;
}

double normPi(double a) {
  double r = norm2pi(a);
  if (r > kPi) r -= kTwoPi;
  return r;
}

double angCcw(Vec2 u, Vec2 v, Vec2 w) {
  const double a = (u - v).arg();
  const double b = (w - v).arg();
  return norm2pi(b - a);
}

double angMin(Vec2 u, Vec2 v, Vec2 w) {
  const double a = angCcw(u, v, w);
  return std::min(a, kTwoPi - a);
}

double angDist(double a, double b) {
  const double d = norm2pi(b - a);
  return std::min(d, kTwoPi - d);
}

}  // namespace apf::geom

#include "geom/transform.h"

#include <cassert>
#include <cmath>

#include "geom/angle.h"

namespace apf::geom {

Similarity::Similarity(double angle, double scale, bool reflect, Vec2 offset)
    : angle_(angle),
      cos_(std::cos(angle)),
      sin_(std::sin(angle)),
      scale_(scale),
      reflect_(reflect),
      offset_(offset) {
  assert(scale_ > 0.0);
}

Similarity operator*(const Similarity& a, const Similarity& b) {
  // Linear parts: A = s_a R_a M_a, B = s_b R_b M_b.
  // A * B = s_a s_b R_a M_a R_b M_b. Using M R(t) = R(-t) M:
  //   M_a R_b = R(+-b) M_a, so the composed rotation is a + (a.reflect? -b : b)
  // and the composed reflection flag is xor.
  const double angle =
      a.angle_ + (a.reflect_ ? -b.angle_ : b.angle_);
  const double scale = a.scale_ * b.scale_;
  const bool reflect = a.reflect_ != b.reflect_;
  const Vec2 offset = a.apply(b.offset_);
  return {norm2pi(angle), scale, reflect, offset};
}

Similarity Similarity::inverse() const {
  // Inverse linear part of s R M is (1/s) M^-1 R^-1 = (1/s) M R(-a)... using
  // M R(-a) = R(a) M, the inverse is (1/s) R(reflect ? a : -a) M.
  const double invAngle = reflect_ ? angle_ : -angle_;
  Similarity inv{norm2pi(invAngle), 1.0 / scale_, reflect_, {}};
  inv.offset_ = -inv.applyLinear(offset_);
  return inv;
}

}  // namespace apf::geom

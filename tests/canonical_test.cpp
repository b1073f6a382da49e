#include <gtest/gtest.h>

#include <cmath>

#include "config/canonical.h"
#include "config/generator.h"
#include "io/patterns.h"

namespace apf {
namespace {

TEST(CanonicalTest, InvariantUnderSimilarity) {
  config::Rng rng(3);
  const config::Configuration p = config::randomConfiguration(9, rng);
  const auto base = config::canonicalSignature(p);
  for (int k = 0; k < 8; ++k) {
    const geom::Similarity t(0.7 * k, std::pow(1.5, k % 3), k % 2 == 1,
                             {1.0 * k, -2.0 * k});
    EXPECT_EQ(config::canonicalSignature(p.transformed(t)), base) << k;
  }
}

TEST(CanonicalTest, DistinguishesDifferentShapes) {
  config::Rng rng(4);
  const auto a = config::canonicalSignature(config::randomConfiguration(9, rng));
  const auto b = config::canonicalSignature(config::randomConfiguration(9, rng));
  EXPECT_NE(a, b);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(CanonicalTest, SymmetricShapesStillCanonical) {
  // A square has 8 equivalent anchors; the canonical form must still be
  // unique and invariant.
  const auto sq = config::canonicalSignature(io::polygonPattern(4));
  const auto sqRot = config::canonicalSignature(
      io::polygonPattern(4).transformed(geom::Similarity::rotation(0.77)));
  EXPECT_EQ(sq, sqRot);
  EXPECT_NE(sq, config::canonicalSignature(io::polygonPattern(5)));
}

TEST(CanonicalTest, DegenerateAllCoincident) {
  const config::Configuration blob({{1, 1}, {1, 1}, {1, 1}});
  const auto sig = config::canonicalSignature(blob);
  ASSERT_EQ(sig.key.size(), 1u);
  EXPECT_EQ(sig.key[0], 3);
}

}  // namespace
}  // namespace apf

/// Tests of the counting random source (sched/rng.h). The random-bit
/// ledger is the measurement the paper's "one bit per robot per cycle"
/// claim is checked against (bench_randbits, apf_estimate's bits bounds), so
/// its accounting rules are pinned here: bit() costs exactly 1, uniform()
/// exactly 53, adversary draws cost nothing.

#include <gtest/gtest.h>

#include "sched/rng.h"

namespace apf {
namespace {

TEST(RandomSourceTest, BitCostsExactlyOne) {
  sched::RandomSource rng(1);
  EXPECT_EQ(rng.bitsConsumed(), 0u);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    rng.bit();
    EXPECT_EQ(rng.bitsConsumed(), i);
  }
}

TEST(RandomSourceTest, UniformCostsFiftyThreeAndStaysInRange) {
  sched::RandomSource rng(2);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(rng.bitsConsumed(), 53 * i);
  }
}

TEST(RandomSourceTest, MixedDrawsSumTheirCosts) {
  sched::RandomSource rng(3);
  rng.bit();
  rng.uniform();
  rng.bit();
  rng.bit();
  rng.uniform();
  EXPECT_EQ(rng.bitsConsumed(), 3 * 1 + 2 * 53u);
}

TEST(RandomSourceTest, AdversaryDrawsAreFree) {
  // Scheduler/adversary randomness is not algorithm randomness: raw engine
  // draws must not move the ledger (the paper's bit complexity counts only
  // what the ALGORITHM consumes).
  sched::RandomSource rng(4);
  std::mt19937_64& adversary = rng.adversaryEngine();
  for (int i = 0; i < 10; ++i) adversary();
  std::uniform_int_distribution<int> pick(0, 99);
  pick(adversary);
  EXPECT_EQ(rng.bitsConsumed(), 0u);
  // ... but the engine is genuinely shared: adversary draws advance the
  // same stream that bit() reads from.
  sched::RandomSource fresh(4);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = rng.bit() != fresh.bit();
  }
  EXPECT_TRUE(diverged);
}

TEST(RandomSourceTest, SameSeedSameSequence) {
  sched::RandomSource a(42), b(42);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(a.bit(), b.bit());
  }
  ASSERT_EQ(a.uniform(), b.uniform());
  EXPECT_EQ(a.bitsConsumed(), b.bitsConsumed());
}

TEST(RandomSourceTest, CopiesCountIndependently) {
  // A copied source forks both the stream state and the ledger: draws from
  // the copy never bill the original (campaign workers each own a source).
  sched::RandomSource original(7);
  original.bit();
  sched::RandomSource copy = original;
  for (int i = 0; i < 5; ++i) copy.bit();
  copy.uniform();
  EXPECT_EQ(original.bitsConsumed(), 1u);
  EXPECT_EQ(copy.bitsConsumed(), 1u + 5u + 53u);
  // The fork point is exact: the copy's next draw equals what the
  // original's next draw would have been.
  sched::RandomSource probe(7);
  probe.bit();
  sched::RandomSource forked = probe;
  EXPECT_EQ(probe.bit(), forked.bit());
}

}  // namespace
}  // namespace apf

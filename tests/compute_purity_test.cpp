/// Compute purity: the premise of the engine's Compute reuse
/// (Engine::compute, Metrics::computesReused). Snapshots harvested from live
/// runs, in every phase tag the runs reach, are computed twice: warm, on
/// this thread, and cold, on a fresh thread (empty PatternInfo cache) from
/// copies whose geometry caches are empty too. Both calls must draw the
/// same number of bits and return the same action, path geometry bit for
/// bit. A call that draws no bit must also repeat the live run's phase tag.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <thread>

#include "baseline/det_election.h"
#include "baseline/det_formation.h"
#include "baseline/yy.h"
#include "config/generator.h"
#include "core/form_pattern.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "geom/angle.h"
#include "sim/engine.h"

namespace apf {
namespace {

using config::Configuration;
using geom::Vec2;

struct Harvested {
  sim::Snapshot snap;
  int phaseTag = 0;
  std::uint64_t bits = 0;
};

/// Forwards to `inner` and keeps log-spaced samples (the 0th, 1st, 2nd,
/// 3rd, 4th, 8th, 16th, ... call) of the snapshots answered with each tag.
class Tap final : public sim::Algorithm {
 public:
  explicit Tap(const sim::Algorithm& inner) : inner_(inner) {}
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    const std::uint64_t before = rng.bitsConsumed();
    sim::Action act = inner_.compute(snap, rng);
    const std::uint64_t k = seen_[act.phaseTag]++;
    if (k < 4 || (k & (k - 1)) == 0) {
      harvest.push_back({snap, act.phaseTag, rng.bitsConsumed() - before});
    }
    return act;
  }
  std::string name() const override { return "tap(" + inner_.name() + ")"; }

  mutable std::vector<Harvested> harvest;

 private:
  const sim::Algorithm& inner_;
  mutable std::map<int, std::uint64_t> seen_;
};

Configuration twoConcentric(std::size_t k) {
  Configuration p = config::regularPolygon(k, 1.0, {}, 0.0);
  const Configuration inner =
      config::regularPolygon(k, 0.6, {}, geom::kPi / static_cast<double>(k));
  for (const Vec2& q : inner.points()) p.push_back(q);
  return p;
}

/// Runs `algo` under ASYNC and returns the tapped snapshots.
std::vector<Harvested> harvest(const sim::Algorithm& algo,
                               const Configuration& start,
                               const Configuration& pattern,
                               std::uint64_t seed, std::uint64_t maxEvents,
                               bool commonChirality = false) {
  Tap tap(algo);
  sim::EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.seed = seed;
  opts.maxEvents = maxEvents;
  opts.commonChirality = commonChirality;
  sim::Engine eng(start, pattern, tap, opts);
  (void)eng.run();
  return std::move(tap.harvest);
}

/// The same snapshot with every memoized geometry cache empty.
sim::Snapshot coldCopy(const sim::Snapshot& s) {
  sim::Snapshot c;
  c.robots = Configuration(s.robots.points());
  c.selfIndex = s.selfIndex;
  c.pattern = Configuration(s.pattern.points());
  c.multiplicityDetection = s.multiplicityDetection;
  return c;
}

struct Answer {
  sim::Action act;
  std::uint64_t bits = 0;
};

Answer answer(const sim::Algorithm& algo, const sim::Snapshot& snap) {
  sched::RandomSource rng(4242);
  Answer a;
  a.act = algo.compute(snap, rng);
  a.bits = rng.bitsConsumed();
  return a;
}

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

bool sameBits(Vec2 a, Vec2 b) {
  return bitsOf(a.x) == bitsOf(b.x) && bitsOf(a.y) == bitsOf(b.y);
}

bool sameSegment(const geom::PathSeg& a, const geom::PathSeg& b) {
  if (a.index() != b.index()) return false;
  if (const auto* la = std::get_if<geom::LineSeg>(&a)) {
    const auto& lb = std::get<geom::LineSeg>(b);
    return sameBits(la->a, lb.a) && sameBits(la->b, lb.b);
  }
  const auto& aa = std::get<geom::ArcSeg>(a);
  const auto& ab = std::get<geom::ArcSeg>(b);
  return sameBits(aa.center, ab.center) &&
         bitsOf(aa.radius) == bitsOf(ab.radius) &&
         bitsOf(aa.startAngle) == bitsOf(ab.startAngle) &&
         bitsOf(aa.sweep) == bitsOf(ab.sweep);
}

bool samePath(const geom::Path& a, const geom::Path& b) {
  const auto sa = a.segments();
  const auto sb = b.segments();
  if (a.empty() != b.empty() || sa.size() != sb.size()) return false;
  if (!sameBits(a.start(), b.start())) return false;
  for (std::size_t k = 0; k < sa.size(); ++k) {
    if (!sameSegment(sa[k], sb[k])) return false;
  }
  return true;
}

/// Checks every harvested snapshot; returns the phase tags covered.
std::set<int> expectPure(const sim::Algorithm& algo,
                         const std::vector<Harvested>& snaps,
                         const std::string& label) {
  std::set<int> tags;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    const Harvested& h = snaps[k];
    const Answer warm = answer(algo, h.snap);
    const sim::Snapshot cold = coldCopy(h.snap);
    Answer fresh;
    std::thread([&] { fresh = answer(algo, cold); }).join();
    const std::string what = label + " snapshot " + std::to_string(k) +
                             " (phase " + core::phaseName(h.phaseTag) + ")";
    EXPECT_EQ(warm.bits, fresh.bits) << what;
    EXPECT_EQ(warm.act.phaseTag, fresh.act.phaseTag) << what;
    EXPECT_EQ(warm.act.electionRound, fresh.act.electionRound) << what;
    EXPECT_TRUE(samePath(warm.act.path, fresh.act.path)) << what;
    if (h.bits == 0) {
      // No bit drawn: the live answer is a function of the snapshot alone.
      EXPECT_EQ(warm.bits, 0u) << what;
      EXPECT_EQ(warm.act.phaseTag, h.phaseTag) << what;
    }
    tags.insert(h.phaseTag);
  }
  return tags;
}

TEST(ComputePurityTest, FormAcrossPhases) {
  core::FormPatternAlgorithm form;
  config::Rng rng(7);
  std::set<int> tags;
  for (std::size_t n : {16u, 32u}) {
    const Configuration pattern = config::randomPattern(n, rng);
    const Configuration random = config::randomConfiguration(n, rng, 3.0, 0.1);
    const std::string size = " n=" + std::to_string(n);
    tags.merge(expectPure(form, harvest(form, random, pattern, 2, 200000),
                          "form random" + size));
    tags.merge(expectPure(form,
                          harvest(form, twoConcentric(n / 2), pattern, 3,
                                  n == 16 ? 200000 : 30000),
                          "form two-gon" + size));
  }
  // The runs reach the election (shifted, symmetric and asymmetric), the
  // psi_DPF sub-phases, the final move and the terminal stay.
  for (int tag : {core::kTerminal, core::kFinalMove, core::kRsbShifted,
                  core::kRsbElection, core::kRsbAsymmetric, core::kDpfCoord,
                  core::kDpfClean, core::kDpfLocate, core::kDpfRemove,
                  core::kDpfRotate}) {
    EXPECT_TRUE(tags.count(tag) != 0) << core::phaseName(tag);
  }
}

TEST(ComputePurityTest, RsbAndBaselines) {
  config::Rng rng(11);
  const Configuration pattern = config::randomPattern(16, rng);
  const Configuration random = config::randomConfiguration(16, rng, 3.0, 0.1);

  core::RsbOnlyAlgorithm rsb;
  const auto rsbSnaps = harvest(rsb, twoConcentric(8), pattern, 4, 20000);
  EXPECT_TRUE(expectPure(rsb, rsbSnaps, "rsb").count(core::kRsbElection) != 0);

  baseline::YYAlgorithm yy;
  expectPure(yy, harvest(yy, random, pattern, 5, 20000, true), "yy");
  baseline::DeterministicElection detElection;
  expectPure(detElection, harvest(detElection, random, pattern, 6, 20000),
             "det-election");
  baseline::DeterministicFormation detFormation;
  expectPure(detFormation, harvest(detFormation, random, pattern, 6, 20000),
             "det-formation");
}

}  // namespace
}  // namespace apf

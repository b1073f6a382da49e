#include "sim/fuzzer.h"

#include <set>
#include <sstream>

#include "config/canonical.h"
#include "obs/span.h"
#include "sim/campaign.h"

namespace apf::sim {

namespace {

/// Everything one schedule contributes to the campaign; produced on a
/// worker thread, merged on the calling thread in run-index order.
struct RunRecord {
  std::set<config::CanonicalSignature> seen;
  bool collisionOk = true;
  bool secOk = true;
  double maxGrowth = 1.0;
  bool terminated = false;
  bool success = false;
  Outcome outcome = Outcome::Stalled;
  std::string violation;  // first violation of this run (empty when clean)
  std::string violationKind;  // "collision" / "sec_growth"
  std::uint64_t seed = 0;
  double earlyStopProb = 0.0;
};

}  // namespace

FuzzResult fuzzSchedules(const Algorithm& algo, const Scenario& sc,
                         const FuzzOptions& opts) {
  FuzzResult out;
  const config::Configuration start = startFor(sc, sc.baseSeed);
  const config::Configuration& pattern = sc.pattern;
  std::set<config::CanonicalSignature> seen;
  seen.insert(config::canonicalSignature(start));
  // Computed before the fan-out: warms `start`'s SEC cache, so worker
  // threads copying `start` into their engines read a stable cache.
  const double startSec = start.sec().radius;
  pattern.sec();  // warm for the same reason (engines copy `pattern` too)
  // Warm the pattern's Weber cache too: every snapshot's pattern copy
  // descends from this instance, so one Weiszfeld here serves the whole
  // campaign (algorithms then hit the cache; same warm-before-share rule).
  pattern.weberPoint();
  // Multiplicity in the TARGET is intended; anything else is a collision.
  const bool patternHasMultiplicity = pattern.hasMultiplicity();

  constexpr double kAggression[] = {0.1, 0.5, 0.9};
  std::vector<int> runs(static_cast<std::size_t>(std::max(0, opts.schedules)));
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = static_cast<int>(i);

  // One schedule, fully thread-confined: its own Engine (which copies start
  // and pattern), RNG streams, fault plan, and observer state.
  auto worker = [&](int run, std::size_t) -> RunRecord {
    obs::ScopedSpan span("fuzz_run", "fuzzer", "run", run);
    RunRecord rec;
    EngineOptions eopts =
        engineOptions(sc, 0x5eedu + 77u * static_cast<std::uint64_t>(run));
    eopts.sched.earlyStopProb = kAggression[run % 3];
    rec.seed = eopts.seed;
    rec.earlyStopProb = eopts.sched.earlyStopProb;
    Engine eng(start, pattern, algo, eopts);

    // Incremental safety-check state. The observer only fires on position
    // changes, and only the activated robot can have moved, which supports
    // two exact short-cuts (both preserve the merged FuzzResult bit for
    // bit — see docs/PERFORMANCE.md for the argument):
    //  * collision: `hasMultiplicity` holds iff SOME pair of live points is
    //    within tolerance. If the previous check found no such pair, any
    //    new pair must involve the moved robot, so an O(n) scan against it
    //    replaces the O(n^2) full scan.
    //  * SEC bound: `liveSec` always encloses every live point (crashes
    //    only shrink the live set). When the moved robot lands inside it,
    //    the new live SEC radius cannot exceed liveSec.radius, which was
    //    already folded into maxGrowth — so the recompute is skipped and
    //    neither maxGrowth nor the bound verdict can change.
    std::uint64_t lastVersion = 0;
    bool baselineChecked = false;  // full O(n^2) collision scan done once
    bool runCollided = false;
    geom::Circle liveSec;  // encloses all live robots once haveLiveSec
    bool haveLiveSec = false;
    // Reused across observer invocations (the observer is run-confined):
    // fills once per use, capacity persists, so the per-event safety check
    // allocates nothing in steady state.
    std::vector<geom::Vec2> liveBuf;
    liveBuf.reserve(start.size());

    std::string& violation = rec.violation;
    eng.setObserver([&](const Engine& e, std::size_t robot) {
      if (e.configVersion() == lastVersion) return;  // nothing moved
      lastVersion = e.configVersion();
      rec.seen.insert(config::canonicalSignature(e.positions()));
      const config::Configuration& all = e.positions();
      const std::size_t liveCount = all.size() - e.crashedCount();
      if (liveCount < 2) return;

      const geom::Tol tol{1e-9, 1e-9};
      auto livePoints = [&]() -> const std::vector<geom::Vec2>& {
        liveBuf.clear();
        for (std::size_t j = 0; j < all.size(); ++j) {
          if (!e.isCrashed(j)) liveBuf.push_back(all[j]);
        }
        return liveBuf;
      };

      if (!patternHasMultiplicity && !runCollided) {
        bool collided = false;
        if (!baselineChecked) {
          // First position change of the run: establish the no-coincident-
          // pair invariant over the whole live set once (pairwise scan ==
          // hasMultiplicity's boolean, see config::hasCoincidentPair).
          collided = config::hasCoincidentPair(livePoints(), tol);
          baselineChecked = true;
        } else {
          const geom::Vec2 p = all[robot];
          for (std::size_t j = 0; j < all.size(); ++j) {
            if (j == robot || e.isCrashed(j)) continue;
            if (geom::nearlyEqual(all[j], p, tol)) {
              collided = true;
              break;
            }
          }
        }
        if (collided) {
          runCollided = true;
          rec.collisionOk = false;
          if (violation.empty()) {
            rec.violationKind = "collision";
            std::ostringstream os;
            os << "collision: run " << run << ", event " << e.metrics().events
               << ", robot " << robot;
            if (e.crashedCount() > 0) {
              os << " (" << e.crashedCount() << " crashed)";
            }
            violation = os.str();
          }
        }
      }

      if (haveLiveSec &&
          geom::dist(all[robot], liveSec.center) <= liveSec.radius) {
        return;  // new live SEC radius <= liveSec.radius <= maxGrowth * start
      }
      liveSec = geom::smallestEnclosingCircle(livePoints());
      haveLiveSec = true;
      const double growth = liveSec.radius / startSec;
      rec.maxGrowth = std::max(rec.maxGrowth, growth);
      if (growth > FuzzResult::kSecGrowthBound) {
        rec.secOk = false;
        if (violation.empty()) {
          rec.violationKind = "sec_growth";
          std::ostringstream os;
          os << "SEC grew x" << growth << ": run " << run << ", event "
             << e.metrics().events;
          violation = os.str();
        }
      }
    });

    const RunResult res = eng.run();
    rec.terminated = res.terminated;
    rec.success = res.success;
    rec.outcome = res.outcome;
    return rec;
  };

  runCampaign(
      runs, worker,
      [&](std::size_t i, RunRecord&& rec) {
        ++out.runs;
        out.terminated += rec.terminated;
        out.successes += rec.success;
        out.outcomes[rec.outcome] += 1;
        out.collisionFree = out.collisionFree && rec.collisionOk;
        out.secBounded = out.secBounded && rec.secOk;
        out.maxSecGrowthFactor =
            std::max(out.maxSecGrowthFactor, rec.maxGrowth);
        if (!rec.violation.empty()) {
          FuzzFailure failure;
          failure.seed = rec.seed;
          failure.earlyStopProb = rec.earlyStopProb;
          failure.violation = rec.violation;
          failure.violationKind = rec.violationKind;
          failure.run = static_cast<int>(i);
          out.failures.push_back(std::move(failure));
          if (out.firstViolation.empty()) out.firstViolation = rec.violation;
        }
        seen.merge(rec.seen);
      },
      opts.jobs);

  out.distinctConfigurations = seen.size();
  return out;
}

}  // namespace apf::sim

#include "sim/fuzzer.h"

#include <set>
#include <string>

#include "config/canonical.h"
#include "obs/span.h"
#include "sim/campaign.h"

namespace apf::sim {

namespace {

/// Everything one schedule contributes to the campaign; produced on a
/// worker thread, merged on the calling thread in run-index order.
struct RunRecord {
  std::set<config::CanonicalSignature> seen;
  RunResult res;
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
  // Warm the shared instances' caches before the fan-out, so worker
  // threads copying `start` and `pattern` into their engines read stable
  // caches. Every snapshot's pattern copy descends from `pattern`, so one
  // Weiszfeld here serves the whole campaign.
  start.sec();
  pattern.sec();
  pattern.weberPoint();

  constexpr double kAggression[] = {0.1, 0.5, 0.9};
  std::vector<int> runs(static_cast<std::size_t>(std::max(0, opts.schedules)));
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = static_cast<int>(i);

  // One schedule, fully thread-confined: its own Engine (which copies start
  // and pattern and checks safety itself), RNG streams and fault plan. The
  // observer only gathers coverage.
  auto worker = [&](int run, std::size_t) -> RunRecord {
    obs::ScopedSpan span("fuzz_run", "fuzzer", "run", run);
    RunRecord rec;
    EngineOptions eopts =
        engineOptions(sc, 0x5eedu + 77u * static_cast<std::uint64_t>(run));
    eopts.sched.earlyStopProb = kAggression[run % 3];
    rec.seed = eopts.seed;
    rec.earlyStopProb = eopts.sched.earlyStopProb;
    Engine eng(start, pattern, algo, eopts);
    eng.setObserver([&](const Engine& e, std::size_t) {
      rec.seen.insert(config::canonicalSignature(e.positions()));
    });
    rec.res = eng.run();
    return rec;
  };

  runCampaign(
      runs, worker,
      [&](std::size_t i, RunRecord&& rec) {
        const SafetyRecord& safety = rec.res.safety;
        ++out.runs;
        out.terminated += rec.res.terminated;
        out.successes += rec.res.success;
        out.outcomes[rec.res.outcome] += 1;
        out.collisionFree = out.collisionFree && !safety.collision;
        out.secBounded = out.secBounded && !safety.secGrowth;
        out.maxSecGrowthFactor =
            std::max(out.maxSecGrowthFactor, safety.maxSecGrowth);
        if (safety.violated()) {
          FuzzFailure failure;
          failure.seed = rec.seed;
          failure.earlyStopProb = rec.earlyStopProb;
          failure.violation = "run ";
          failure.violation.append(std::to_string(i))
              .append(", ")
              .append(describeViolation(safety));
          failure.violationKind = safety.firstKind();
          failure.run = static_cast<int>(i);
          if (out.firstViolation.empty()) out.firstViolation = failure.violation;
          out.failures.push_back(std::move(failure));
        }
        seen.merge(rec.seen);
      },
      opts.jobs);

  out.distinctConfigurations = seen.size();
  return out;
}

}  // namespace apf::sim

#include "workload.h"

#include <algorithm>
#include <numbers>
#include <random>
#include <stdexcept>

#include "config/generator.h"
#include "config/similarity.h"
#include "config/symmetry.h"
#include "core/analysis.h"
#include "core/form_pattern.h"
#include "core/rsb.h"
#include "io/patterns.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "reference.h"
#include "sim/engine.h"

namespace perfbench {
namespace {

using namespace apf;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double seconds(std::uint64_t nanos) { return static_cast<double>(nanos) / 1e9; }

/// Forwards to the real algorithm inside a benchmark span and records the
/// returned phase tag, the move flag and a uniform reservoir of snapshots.
/// One instance per run, so no state is shared between threads.
class TracedAlgorithm final : public sim::Algorithm {
 public:
  TracedAlgorithm(const sim::Algorithm& inner, std::int64_t run,
                  std::size_t reservoir)
      : inner_(inner), run_(run), reservoir_(reservoir),
        rng_(splitmix64(static_cast<std::uint64_t>(run))) {
    log_.phaseCalls.assign(kPhaseTags, 0);
  }

  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    sim::Action act;
    {
      obs::ScopedSpan span("core.compute", "bench", "run", run_);
      act = inner_.compute(snap, rng);
      span.arg2("phase", act.phaseTag);
    }
    const std::uint64_t k = log_.calls++;
    if (act.isMove()) ++log_.moves;
    if (act.phaseTag >= 0 &&
        static_cast<std::size_t>(act.phaseTag) < log_.phaseCalls.size()) {
      ++log_.phaseCalls[static_cast<std::size_t>(act.phaseTag)];
    }
    // Vitter's algorithm R: every Compute of the run is equally likely to
    // end up in the reservoir.
    if (k < reservoir_) {
      log_.samples.push_back({snap, act.phaseTag, run_});
    } else if (reservoir_ > 0) {
      const std::uint64_t j = std::uniform_int_distribution<std::uint64_t>(
          0, k)(rng_);
      if (j < reservoir_) log_.samples[j] = {snap, act.phaseTag, run_};
    }
    return act;
  }
  std::string name() const override { return inner_.name(); }

  ComputeLog takeLog() { return std::move(log_); }

 private:
  const sim::Algorithm& inner_;
  std::int64_t run_;
  std::size_t reservoir_;
  mutable std::mt19937_64 rng_;
  mutable ComputeLog log_;
};

/// Forwards to the real algorithm, first calling the reference kernel
/// when kReferenceIntervalNanos have passed since its last call. One
/// instance per run, so no state is shared between threads.
class ReferencedAlgorithm final : public sim::Algorithm {
 public:
  explicit ReferencedAlgorithm(const sim::Algorithm& inner) : inner_(inner) {}

  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    if (obs::nowNanos() - last_ >= kReferenceIntervalNanos) sample();
    return inner_.compute(snap, rng);
  }
  std::string name() const override { return inner_.name(); }

  /// Calls the kernel once.
  void sample() const {
    seconds_ += referenceSeconds();
    ++samples_;
    last_ = obs::nowNanos();
  }
  std::uint32_t samples() const { return samples_; }
  /// Total kernel time so far, to take out of the run's time.
  double seconds() const { return seconds_; }

 private:
  const sim::Algorithm& inner_;
  mutable std::uint64_t last_ = 0;
  mutable std::uint32_t samples_ = 0;
  mutable double seconds_ = 0.0;
};

bool goalReached(const WorkloadSpec& spec, const Instance& inst,
                 const sim::RunResult& res) {
  if (!res.terminated) return false;
  if (spec.goal == Goal::Formation) {
    // The tolerance the algorithm stops within (robots settle within 1e-7
    // of their targets), the same the engine's own success test uses.
    return res.success && config::similar(res.finalPositions, inst.pattern,
                                          geom::Tol{1e-6, 1e-6});
  }
  sim::Snapshot snap;
  snap.robots = res.finalPositions;
  snap.pattern = inst.pattern;
  core::Analysis a(snap);
  return a.ok() && a.selectedRobot().has_value();
}

Configuration startFor(const WorkloadSpec& spec, bool symmetric,
                       config::Rng& rng) {
  if (symmetric) {
    return config::symmetricConfiguration(static_cast<int>(spec.n / 2), 2,
                                          rng);
  }
  return config::randomConfiguration(spec.n, rng, 5.0, 0.1);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // perfbench/README.md gives why each workload and corpus seed was chosen.
  static const std::vector<WorkloadSpec> all = {
      {"election_sym48", Goal::Election, StartKind::Symmetric, 48, 3, false,
       1, 2},
      {"formation_rand64", Goal::Formation, StartKind::Random, 64, 2, false,
       3, 7},
      {"campaign_small16", Goal::Formation, StartKind::Alternate, 16, 64,
       true, 10, 11},
  };
  return all;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Instance> makeCorpus(const WorkloadSpec& spec,
                                 std::uint64_t corpusSeed,
                                 std::uint64_t frameSeed) {
  std::mt19937_64 frameRng(splitmix64(frameSeed));
  std::uniform_real_distribution<double> angle(0.0, 2.0 * std::numbers::pi);
  std::uniform_real_distribution<double> offset(-1.0, 1.0);
  const geom::Similarity startFrame =
      geom::Similarity::translation({offset(frameRng), offset(frameRng)}) *
      geom::Similarity::rotation(angle(frameRng));
  const geom::Similarity patternFrame =
      geom::Similarity::rotation(angle(frameRng));

  std::vector<Instance> corpus;
  corpus.reserve(static_cast<std::size_t>(spec.runsPerPass));
  for (int i = 0; i < spec.runsPerPass; ++i) {
    const std::uint64_t base =
        splitmix64(corpusSeed * 0x100000001B3ull + static_cast<std::uint64_t>(i));
    Instance inst;
    inst.symmetricStart =
        spec.starts == StartKind::Symmetric ||
        (spec.starts == StartKind::Alternate && i % 2 == 1);
    config::Rng startRng(splitmix64(base ^ 1));
    inst.start = startFor(spec, inst.symmetricStart, startRng)
                     .transformed(startFrame);
    inst.pattern = (spec.goal == Goal::Election
                        ? io::starPattern(spec.n)
                        : io::randomPatternByName(spec.n, splitmix64(base ^ 2)))
                       .transformed(patternFrame);
    inst.engineSeed = splitmix64(base ^ 3);

    const std::string where =
        std::string(spec.name) + " run " + std::to_string(i);
    if (inst.start.size() != spec.n || inst.pattern.size() != spec.n) {
      throw std::runtime_error(where + ": wrong robot count");
    }
    if (inst.start.hasMultiplicity() || inst.pattern.hasMultiplicity()) {
      throw std::runtime_error(where + ": multiplicity point in the input");
    }
    const int rho = config::symmetricity(inst.start, inst.start.sec().center);
    const int want = inst.symmetricStart ? static_cast<int>(spec.n / 2) : 1;
    if (rho != want) {
      throw std::runtime_error(where + ": start has symmetricity " +
                               std::to_string(rho) + ", expected " +
                               std::to_string(want));
    }
    corpus.push_back(std::move(inst));
  }
  return corpus;
}

PassResult runPass(const WorkloadSpec& spec,
                   const std::vector<Instance>& corpus,
                   const PassOptions& opts) {
  static const core::FormPatternAlgorithm form;
  static const core::RsbOnlyAlgorithm rsb;
  const sim::Algorithm& algo =
      spec.goal == Goal::Election ? static_cast<const sim::Algorithm&>(rsb)
                                  : static_cast<const sim::Algorithm&>(form);
  const std::int64_t firstRun =
      static_cast<std::int64_t>(opts.pass) *
      static_cast<std::int64_t>(corpus.size());

  auto worker = [&](const Instance& inst, std::size_t i) {
    const std::uint64_t claimed = obs::nowNanos();
    const std::int64_t run = firstRun + static_cast<std::int64_t>(i);
    std::optional<TracedAlgorithm> traced;
    std::optional<ReferencedAlgorithm> referenced;
    const sim::Algorithm* used = &algo;
    if (opts.traced) {
      used = &traced.emplace(algo, run, opts.samplesPerRun);
    } else if (opts.referenced) {
      used = &referenced.emplace(algo);
      referenced->sample();
    }

    sim::EngineOptions eo;
    eo.seed = inst.engineSeed;
    eo.maxEvents = kMaxEvents;
    sim::RunResult res;
    RunOutcome out;
    {
      const double refBefore = referenced ? referenced->seconds() : 0.0;
      const std::uint64_t t0 = obs::nowNanos();
      sim::Engine eng(inst.start, inst.pattern, *used, eo);
      const std::uint64_t t1 = obs::nowNanos();
      {
        obs::ScopedSpan span("engine.run", "bench", "run", run);
        res = eng.run();
        span.arg2("events", static_cast<std::int64_t>(res.metrics.events));
      }
      out.runSeconds = seconds(obs::nowNanos() - t0) -
                       (referenced ? referenced->seconds() - refBefore : 0.0);
      out.setupSeconds = seconds(t1 - claimed);
      if (referenced) {
        out.refSamples = referenced->samples();
        out.refSeconds = referenced->seconds();
      }
    }
    out.goal = goalReached(spec, inst, res);
    const sim::Metrics& m = res.metrics;
    out.cycles = m.cycles;
    out.events = m.events;
    out.randomBits = m.randomBits;
    out.secHits = m.secCacheHits;
    out.secMisses = m.secCacheMisses;
    out.weberHits = m.weberCacheHits;
    out.weberMisses = m.weberCacheMisses;
    if (traced) out.log = traced->takeLog();
    return out;
  };

  PassResult pass;
  pass.runs.resize(corpus.size());
  const std::uint64_t t0 = obs::nowNanos();
  {
    obs::ScopedSpan span("runCampaign", "bench", "pass", opts.pass);
    sim::runCampaign(
        corpus, worker,
        [&](std::size_t i, RunOutcome&& r) { pass.runs[i] = std::move(r); },
        opts.jobs, &pass.stats);
  }
  pass.wallSeconds = seconds(obs::nowNanos() - t0);
  return pass;
}

}  // namespace perfbench

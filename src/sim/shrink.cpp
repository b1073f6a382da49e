#include "sim/shrink.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/recorder.h"
#include "sim/engine.h"

namespace apf::sim {

ReplayResult replay(const ReproCase& c, const Algorithm& algo) {
  EngineOptions eopts = engineOptions(c, c.baseSeed);
  eopts.sched.earlyStopProb = c.earlyStopProb;

  // Local copies: replay probes run back to back and must not share a lazy
  // SEC cache with the caller's instances.
  config::Configuration start = c.start;
  config::Configuration pattern = c.pattern;
  const double startSec = start.sec().radius;
  const bool patternHasMultiplicity = pattern.hasMultiplicity();

  ReplayResult out;
  Engine eng(start, pattern, algo, eopts);

  // Same invariants as sim/fuzzer.cpp, minus the incremental shortcuts
  // (which are exactness-preserving there, so both observers flag the same
  // runs): collision-freedom of the live robots and the SEC growth bound.
  std::uint64_t lastVersion = 0;
  std::string& violation = out.violation;
  eng.setObserver([&](const Engine& e, std::size_t robot) {
    if (e.configVersion() == lastVersion) return;
    lastVersion = e.configVersion();
    if (out.violated) return;
    const config::Configuration& all = e.positions();
    const std::size_t liveCount = all.size() - e.crashedCount();
    if (liveCount < 2) return;
    std::vector<geom::Vec2> live;
    live.reserve(liveCount);
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (!e.isCrashed(j)) live.push_back(all[j]);
    }
    const geom::Tol tol{1e-9, 1e-9};
    if (!patternHasMultiplicity &&
        config::Configuration(live).hasMultiplicity(tol)) {
      out.violated = true;
      out.violationKind = "collision";
      out.violationEvent = e.metrics().events;
      std::ostringstream os;
      os << "collision: event " << e.metrics().events << ", robot " << robot;
      if (e.crashedCount() > 0) os << " (" << e.crashedCount() << " crashed)";
      violation = os.str();
      return;
    }
    const double growth =
        geom::smallestEnclosingCircle(live).radius / startSec;
    if (growth > FuzzResult::kSecGrowthBound) {
      out.violated = true;
      out.violationKind = "sec_growth";
      out.violationEvent = e.metrics().events;
      std::ostringstream os;
      os << "SEC grew x" << growth << ": event " << e.metrics().events;
      violation = os.str();
    }
  });

  out.run = eng.run();
  return out;
}

ReproCase reproOf(const Scenario& sc, config::Configuration start,
                  std::uint64_t seed, double earlyStopProb,
                  fault::FaultPlan plan) {
  ReproCase c;
  static_cast<Scenario&>(c) = sc;
  c.startKind = "points";
  c.start = std::move(start);
  c.baseSeed = seed;
  c.runs = 1;
  c.crashF = 0;
  c.fault = std::move(plan);
  c.faultSeedSet = true;
  c.earlyStopProb = earlyStopProb;
  return c;
}

ReproCase reproFromFailure(const Scenario& sc, const FuzzFailure& failure) {
  ReproCase c = reproOf(sc, startFor(sc, sc.baseSeed), failure.seed,
                        failure.earlyStopProb,
                        engineOptions(sc, failure.seed).fault);
  c.violationKind = failure.violationKind;
  return c;
}

std::string toJson(const ReproCase& c) {
  obs::JsonObjectWriter w;
  w.field("repro", ReproCase::kSchema);
  writeScenario(w, c);
  w.field("early_stop_prob", c.earlyStopProb);
  w.field("violation_kind", c.violationKind);
  return w.str();
}

ReproCase reproFromJson(std::string_view text) {
  using Kind = obs::JsonNode::Kind;
  obs::JsonNode doc;
  ReproCase c;
  static_cast<Scenario&>(c) = scenarioFromJson(
      text, "repro", ReproCase::kSchema, {"early_stop_prob", "violation_kind"},
      doc);
  if (c.startKind != "points" || c.runs != 1 || c.crashF != 0) {
    throw std::runtime_error(
        "repro: needs start_kind \"points\", runs 1 and crash_f 0");
  }
  c.earlyStopProb =
      obs::requireMember(doc, "early_stop_prob", Kind::Number, "repro").number;
  if (!(c.earlyStopProb >= 0.0 && c.earlyStopProb <= 1.0)) {
    throw std::runtime_error("repro: early_stop_prob must be in [0, 1]");
  }
  c.violationKind =
      obs::requireMember(doc, "violation_kind", Kind::String, "repro").string;
  return c;
}

ReproCase loadRepro(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("repro: cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return reproFromJson(buf.str());
}

void saveRepro(const std::string& path, const ReproCase& c) {
  obs::createParentDirs(path);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("repro: cannot open for write: " + path);
  os << toJson(c) << '\n';
  os.flush();
  if (os.fail()) throw std::runtime_error("repro: write failed: " + path);
}

namespace {

/// Candidate with robot k removed: drops start[k] and pattern point k
/// (keeping |start| == |pattern|), discards crashes aimed at k, and remaps
/// higher victim indices down by one.
ReproCase withoutRobot(const ReproCase& c, std::size_t k) {
  ReproCase cand = c;
  cand.start = c.start.without(k);
  cand.pattern = c.pattern.without(std::min(k, c.pattern.size() - 1));
  cand.fault.crashes.clear();
  for (const fault::CrashFault& f : c.fault.crashes) {
    if (f.robot == k) continue;
    fault::CrashFault g = f;
    if (g.robot > k) --g.robot;
    cand.fault.crashes.push_back(g);
  }
  return cand;
}

}  // namespace

ShrinkResult shrink(const ReproCase& failing, const Algorithm& algo,
                    const ShrinkOptions& opts) {
  ShrinkResult out;
  out.minimized = failing;

  ReplayResult base = replay(out.minimized, algo);
  ++out.probes;
  out.initialReproduced = base.reproduces(out.minimized);
  if (!out.initialReproduced) return out;
  if (out.minimized.violationKind.empty()) {
    // Adopt the observed kind so every later candidate must reproduce THE
    // SAME violation, not merely some violation.
    out.minimized.violationKind = base.violationKind;
  }

  auto tryCandidate = [&](ReproCase cand) {
    if (out.probes >= opts.maxProbes) return false;
    ++out.probes;
    ReplayResult r;
    try {
      r = replay(cand, algo);
    } catch (const std::exception&) {
      return false;  // candidate broke an engine precondition — reject
    }
    if (!r.violated || r.violationKind != out.minimized.violationKind) {
      return false;
    }
    out.minimized = std::move(cand);
    ++out.accepted;
    return true;
  };

  bool progress = true;
  for (int pass = 0; progress && pass < opts.maxPasses; ++pass) {
    progress = false;

    // Robots, biggest payoff first. Keep the index in place after an
    // accepted removal (the next robot slid into slot k).
    for (std::size_t k = 0; out.minimized.start.size() > 2 &&
                            k < out.minimized.start.size();) {
      if (tryCandidate(withoutRobot(out.minimized, k))) {
        progress = true;
        ++out.robotsRemoved;
      } else {
        ++k;
      }
    }

    // Crash-plan entries.
    for (std::size_t k = 0; k < out.minimized.fault.crashes.size();) {
      ReproCase cand = out.minimized;
      cand.fault.crashes.erase(cand.fault.crashes.begin() +
                               static_cast<std::ptrdiff_t>(k));
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.crashesRemoved;
      } else {
        ++k;
      }
    }

    // Probabilistic fault knobs: zero each; for sigma, fall back to
    // halving when zero loses the violation.
    double fault::FaultPlan::* const probKnobs[] = {
        &fault::FaultPlan::omitProb, &fault::FaultPlan::multFlipProb,
        &fault::FaultPlan::dropProb, &fault::FaultPlan::truncProb};
    for (const auto knob : probKnobs) {
      if (out.minimized.fault.*knob <= 0.0) continue;
      ReproCase cand = out.minimized;
      cand.fault.*knob = 0.0;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.knobsCleared;
      }
    }
    if (out.minimized.fault.noiseSigma > 0.0) {
      ReproCase cand = out.minimized;
      cand.fault.noiseSigma = 0.0;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.knobsCleared;
      } else if (out.minimized.fault.noiseSigma > 1e-6) {
        cand = out.minimized;
        cand.fault.noiseSigma *= 0.5;
        if (tryCandidate(std::move(cand))) {
          progress = true;
          ++out.knobsCleared;
        }
      }
    }

    // Adversary aggression: the mildest earlyStopProb that still breaks.
    for (const double target : {0.0, 0.1, 0.25, 0.5}) {
      if (target >= out.minimized.earlyStopProb) break;
      ReproCase cand = out.minimized;
      cand.earlyStopProb = target;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        break;
      }
    }
  }

  if (opts.shrinkEventBudget && out.probes < opts.maxProbes) {
    // Clamp the event budget to just past the violation so the final repro
    // replays fast. Margin keeps the budget from sitting exactly on the
    // violation event.
    ++out.probes;
    const ReplayResult r = replay(out.minimized, algo);
    if (r.violated && r.violationEvent + 64 < out.minimized.maxEvents) {
      ReproCase cand = out.minimized;
      cand.maxEvents = r.violationEvent + 64;
      tryCandidate(std::move(cand));
    }
  }
  return out;
}

}  // namespace apf::sim

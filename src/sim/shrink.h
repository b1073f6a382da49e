#pragma once

/// \file shrink.h
/// Delta-debugging minimizer for fuzzer counterexamples
/// (docs/RESILIENCE.md). A FuzzFailure is an exact replay coordinate (its
/// scenario + seed + adversary aggression) but usually a needlessly
/// BIG one: the violation that needed 10 robots and 3 crash faults to be
/// *found* often reproduces with 4 robots and none. The shrinker greedily
/// removes robots, fault-plan entries, and adversary aggression while the
/// violation still reproduces, and the result serializes as a
/// self-contained `.repro.json` (schema "apf.repro.v2": the scenario's
/// fields, sim/scenario.h, plus the adversary aggression and the expected
/// violation) that `apf_sim --replay` re-executes exactly — the minimal
/// artifact the paper-style case analysis actually wants to look at.
///
/// Layering: the shrinker never names a concrete algorithm (core depends
/// on sim, not vice versa) — callers pass the `Algorithm&` and the repro
/// carries only its name string, which `apf_sim --replay` maps back to an
/// instance.

#include <cstdint>
#include <string>
#include <string_view>

#include "config/configuration.h"
#include "fault/fault.h"
#include "sim/algorithm.h"
#include "sim/fuzzer.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace apf::sim {

/// A self-contained, exactly replayable counterexample: one run of a
/// scenario from fixed points, seeded `baseSeed`, under the run's concrete
/// fault plan (explicit crashes, crashF 0, pinned fault seed).
struct ReproCase : Scenario {
  static constexpr const char* kSchema = "apf.repro.v2";

  ReproCase() {
    startKind = "points";
    faultSeedSet = true;
  }

  double earlyStopProb = 0.5;
  /// Expected safety violation: "collision" or "sec_growth".
  std::string violationKind;
};

/// Outcome of re-executing a ReproCase under the fuzzer's safety observer.
struct ReplayResult {
  bool violated = false;
  std::string violationKind;  ///< first violation's kind (empty when clean)
  std::string violation;      ///< human-readable detail
  std::uint64_t violationEvent = 0;  ///< scheduler event of that violation
  RunResult run;

  /// True when the replay hit the violation the case promises.
  bool reproduces(const ReproCase& c) const {
    return violated &&
           (c.violationKind.empty() || violationKind == c.violationKind);
  }
};

/// Re-executes the case (same engine configuration and safety invariants
/// as sim/fuzzer.cpp) and reports the first violation, if any.
/// Deterministic given (case, algo).
ReplayResult replay(const ReproCase& c, const Algorithm& algo);

/// The repro of one run of `sc` from `start`, seeded `seed`, under
/// `earlyStopProb` and the run's concrete plan (EngineOptions::fault).
ReproCase reproOf(const Scenario& sc, config::Configuration start,
                  std::uint64_t seed, double earlyStopProb,
                  fault::FaultPlan plan);

/// The (unshrunk) ReproCase of one failure of fuzzSchedules(algo, sc).
ReproCase reproFromFailure(const Scenario& sc, const FuzzFailure& failure);

/// Nested-JSON (de)serialization. Doubles use the shortest exact form and
/// 64-bit seeds survive via raw-token parsing, so
/// `reproFromJson(toJson(c))` round-trips every field bit for bit.
/// reproFromJson/loadRepro throw std::runtime_error on malformed input, a
/// schema mismatch (an apf.repro.v1 file must be re-captured), a missing
/// or unknown key, or a case validate() rejects.
std::string toJson(const ReproCase& c);
ReproCase reproFromJson(std::string_view text);
ReproCase loadRepro(const std::string& path);
/// Writes toJson() + newline, creating parent directories.
void saveRepro(const std::string& path, const ReproCase& c);

struct ShrinkOptions {
  /// Greedy fixpoint passes over all reduction kinds.
  int maxPasses = 8;
  /// Hard cap on candidate replays (each is one full engine run).
  int maxProbes = 2000;
  /// After minimizing, clamp maxEvents to just past the violation so the
  /// repro replays in milliseconds.
  bool shrinkEventBudget = true;
};

struct ShrinkResult {
  ReproCase minimized;
  /// False when the INPUT case did not reproduce — minimized is then the
  /// input, untouched.
  bool initialReproduced = false;
  int probes = 0;    ///< candidate replays executed
  int accepted = 0;  ///< candidates that kept the violation
  std::size_t robotsRemoved = 0;
  std::size_t crashesRemoved = 0;
  int knobsCleared = 0;  ///< fault probabilities zeroed / sigma halvings
};

/// Greedy delta-debugging: repeatedly tries removing one robot (with its
/// pattern point, remapping crash victims), removing one crash entry,
/// zeroing fault probabilities (halving sigma when zero fails), and
/// lowering earlyStopProb — accepting any candidate that still reproduces
/// the violation kind — until a pass makes no progress.
ShrinkResult shrink(const ReproCase& failing, const Algorithm& algo,
                    const ShrinkOptions& opts = {});

}  // namespace apf::sim

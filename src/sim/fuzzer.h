#pragma once

/// \file fuzzer.h
/// Schedule fuzzer: runs an algorithm from one start under many distinct
/// adversarial schedules, checking SAFETY invariants at every position
/// change (collision-freedom, enclosing-circle stability) and aggregating
/// coverage (distinct configurations visited, via canonical signatures).
/// This is the repository's stand-in for the paper's hand proofs of the
/// ASYNC invariants: it cannot prove, but it hunts counterexamples
/// systematically and is cheap enough to run inside the test suite.
///
/// Fault-aware campaigns: the same invariants are checked for the LIVE
/// robots while a FaultPlan (crash-stop robots, sensor noise/omission,
/// compute faults) is active — the degradation question is not only "does
/// the pattern still form" but "do the survivors at least stay safe".
/// Every run that violates an invariant is surfaced in
/// FuzzResult::failures with its exact seed and adversary aggression, so a
/// CI log line is enough to reproduce the counterexample.

#include <map>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "fault/fault.h"
#include "sim/algorithm.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace apf::sim {

/// What the fuzzer needs beyond its Scenario.
struct FuzzOptions {
  /// Number of distinct schedules (engine seeds) to explore.
  int schedules = 40;
  /// Worker threads for the campaign (see sim/campaign.h): 0 = resolve from
  /// APF_JOBS / hardware concurrency, 1 = serial (no threads spawned). The
  /// merged FuzzResult is bit-identical for every value.
  int jobs = 0;
};

/// One run that violated a safety invariant: with the scenario, everything
/// needed to replay it exactly (engineOptions(sc, seed) with
/// `earlyStopProb`); sim/shrink.h turns a failure into a minimized,
/// self-contained `.repro.json`.
struct FuzzFailure {
  std::uint64_t seed = 0;
  double earlyStopProb = 0.0;
  std::string violation;
  /// Which invariant broke: "collision" or "sec_growth".
  std::string violationKind;
  /// Campaign run index the failure came from.
  int run = 0;
};

struct FuzzResult {
  int runs = 0;
  int terminated = 0;
  int successes = 0;
  /// Run-outcome tally (Outcome enum order: success, stalled,
  /// crashed_short, safety_violation).
  std::map<Outcome, int> outcomes;
  /// Distinct configurations (up to similarity) seen across ALL runs.
  std::size_t distinctConfigurations = 0;
  /// Safety: no unintended multiplicity point was ever created among live
  /// (non-crashed) robots.
  bool collisionFree = true;
  /// Safety: the enclosing circle of the live robots stays bounded. It may
  /// grow slightly during the election (outward walk steps of |r|/7 — the
  /// algorithm is scale-free and renormalizes every Look), but never by
  /// more than the generous factor below; psi_DPF then holds it exactly.
  bool secBounded = true;
  double maxSecGrowthFactor = 1.0;
  static constexpr double kSecGrowthBound = 2.0;
  /// Every run that violated an invariant, with its replay coordinates.
  /// Empty when clean; failures.front().violation == firstViolation.
  std::vector<FuzzFailure> failures;
  /// First violation, human-readable (empty when clean). Kept for
  /// back-compat; `failures` carries the actionable per-run records.
  std::string firstViolation;

  bool clean() const { return collisionFree && secBounded; }
};

/// Fuzzes the scenario (sim/scenario.h) from startFor(sc, sc.baseSeed).
/// Schedule i runs with engineOptions(sc, 0x5eed + 77 i), so crash victims
/// are re-drawn per schedule, and earlyStopProb 0.1, 0.5 or 0.9 (i mod 3);
/// `sc.runs` is unused. Deterministic given the inputs.
FuzzResult fuzzSchedules(const Algorithm& algo, const Scenario& sc,
                         const FuzzOptions& opts = {});

}  // namespace apf::sim

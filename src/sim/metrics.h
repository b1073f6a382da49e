#pragma once

/// \file metrics.h
/// Execution metrics collected by the engine: the quantities the paper's
/// claims are stated in (cycles, random bits) plus diagnostics from the
/// observability layer (histograms, wall-time accumulators). Everything
/// here is a plain value copied out with the RunResult.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "config/configuration.h"
#include "obs/stats.h"

namespace apf::sim {

struct Metrics {
  /// Completed Look-Compute-Move cycles, summed over robots.
  std::uint64_t cycles = 0;
  /// Scheduler events processed (activations at event granularity).
  std::uint64_t events = 0;
  /// Random bits consumed by the algorithm (not the adversary).
  std::uint64_t randomBits = 0;
  /// Total distance traveled by all robots.
  double distance = 0.0;
  /// Activations per algorithm phase tag (see core/phases.h).
  std::map<int, std::uint64_t> phaseActivations;

  // --- observability extensions ---------------------------------------
  /// Election rounds: Compute activations that flipped the election's
  /// random bit (the paper's "one bit per robot per cycle" events).
  std::uint64_t electionRounds = 0;
  /// Compute activations answered without calling the algorithm: the
  /// robot's previous Compute saw the same configuration version and
  /// stayed without drawing a bit, so that stay is taken again
  /// (Engine::compute). Counted in phaseActivations like any other.
  std::uint64_t computesReused = 0;
  /// Snapshot staleness at Compute time, in configuration versions
  /// (version at Compute minus version captured at Look). Always
  /// collected: the update is two integer adds per activation.
  obs::Histogram staleness;
  /// Wall time of the engine's Look / Compute / Move sections. Only
  /// populated when EngineOptions::collectTimings (or a recorder) is set —
  /// clock reads are not free on the hot path.
  obs::Timer lookTime;
  obs::Timer computeTime;
  obs::Timer moveTime;
  /// Wall nanoseconds of algorithm Compute calls per phase tag (timed
  /// runs only).
  std::map<int, std::uint64_t> phaseNanos;

  // --- fault-injection extensions --------------------------------------
  /// Sensor/compute faults injected (equals the run's FaultInjected event
  /// count; crashes are counted separately in `crashed`).
  std::uint64_t faultsInjected = 0;
  /// Robots permanently halted by crash-stop faults.
  std::uint64_t crashed = 0;

  // --- geometry-cache extensions ----------------------------------------
  /// Hit/miss counts of Configuration's memoized sec()/weberPoint() during
  /// this run (per-run delta of config::geomCacheCounters). Deterministic
  /// for any APF_JOBS: the counters are thread-local and a run is confined
  /// to one worker, so the delta depends only on the run itself.
  std::uint64_t secCacheHits = 0;
  std::uint64_t secCacheMisses = 0;
  std::uint64_t weberCacheHits = 0;
  std::uint64_t weberCacheMisses = 0;
};

/// How a run ended, beyond the boolean success/timeout pair: the outcome
/// vocabulary of the degradation harness (bench_faults, apf_report).
enum class Outcome {
  /// Pattern formed — with f crashed robots, under n-f semantics: the
  /// live robots form the pattern minus some f-point subset.
  Success,
  /// No crash, but the run either hit the event cap or went quiescent in
  /// a non-pattern configuration.
  Stalled,
  /// >= 1 robot crashed and the survivors did not reach n-f success.
  CrashedShort,
  /// A move put a live robot on another live robot's point, creating an
  /// unintended multiplicity (RunResult::safety has the details; checked in
  /// every run, with or without faults).
  SafetyViolation,
};

/// Stable wire name (the `result.outcome` manifest value).
inline const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Success:
      return "success";
    case Outcome::Stalled:
      return "stalled";
    case Outcome::CrashedShort:
      return "crashed_short";
    case Outcome::SafetyViolation:
      return "safety_violation";
  }
  return "?";
}

/// What the engine's safety monitor saw in one run (Engine::checkSafety).
/// It checks after every position change, so each field is exact.
struct SafetyRecord {
  /// The live SEC may grow during the election (outward walk steps of
  /// |r|/7 — the algorithm is scale-free and renormalizes every Look), but
  /// never by more than this factor over the start's SEC; psi_DPF then
  /// holds it exactly.
  static constexpr double kSecGrowthBound = 2.0;

  /// The first move that put a live robot within 1e-9 of another live
  /// robot. Not checked when the pattern itself has a multiplicity.
  struct Collision {
    std::uint64_t event = 0;  ///< Metrics::events before the move's event
    std::size_t robot = 0;    ///< the robot that moved
    std::size_t other = 0;    ///< the lowest-index robot it landed on
    int robotPhase = 0;       ///< phase tags of both robots' last Compute
    int otherPhase = 0;
  };
  /// The first move after which the live robots' SEC radius exceeded
  /// kSecGrowthBound times the start's.
  struct SecGrowth {
    std::uint64_t event = 0;
    double factor = 0.0;  ///< live SEC radius over the start's, then
  };

  std::optional<Collision> collision;
  std::optional<SecGrowth> secGrowth;
  /// Largest live SEC radius over the start's seen at any position change
  /// (1 when nothing moved).
  double maxSecGrowth = 1.0;

  bool violated() const { return collision || secGrowth; }
  /// True when the run's first violation is a collision (also when both
  /// fire on the same event).
  bool collisionFirst() const {
    return collision && (!secGrowth || collision->event <= secGrowth->event);
  }
  /// Kind of the first violation: "collision", "sec_growth", or "".
  const char* firstKind() const {
    return collisionFirst() ? "collision" : secGrowth ? "sec_growth" : "";
  }
  /// Scheduler event of the first violation (0 when none fired).
  std::uint64_t firstEvent() const {
    return collisionFirst() ? collision->event
                            : secGrowth ? secGrowth->event : 0;
  }
};

/// Result of one simulation run.
struct RunResult {
  /// True when the run reached a terminal configuration (no live robot
  /// moves, none moving) before the step limit.
  bool terminated = false;
  /// True when the final configuration (crashed robots included) is
  /// similar to the target pattern — the paper's original criterion.
  bool success = false;
  /// Fault-aware classification; Success for clean successful runs, so
  /// fault-free callers may keep reading `success` only.
  Outcome outcome = Outcome::Stalled;
  /// Global positions when the run ended (crashed robots where they
  /// halted). Lets harnesses grade near-misses without re-running.
  config::Configuration finalPositions;
  Metrics metrics;
  /// The safety monitor's record; a collision also sets
  /// Outcome::SafetyViolation.
  SafetyRecord safety;
};

}  // namespace apf::sim

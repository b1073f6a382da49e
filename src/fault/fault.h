#pragma once

/// \file fault.h
/// Fault-injection plans for the simulation engine.
///
/// The paper proves psi_RSB + psi_DPF correct under an idealized ASYNC
/// model: robots never fail, Look snapshots are exact, and multiplicity
/// detection (when assumed) is perfect. A FaultPlan deliberately violates
/// those hypotheses one knob at a time so the benchmarks can *measure* how
/// the algorithms degrade instead of only observing that they work when
/// every assumption holds (see docs/FAULTS.md for the mapping from each
/// injector to the paper assumption it breaks):
///
///  * crash-stop faults  — a robot permanently halts at an adversary-chosen
///    scheduler event (pre-Look, or mid-Move exactly on its committed
///    path); it stays visible to all later snapshots. Success is then
///    judged with n-f semantics: the live robots must form the pattern
///    minus some f-point subset.
///  * sensor faults      — Gaussian position noise on every non-self point
///    of a snapshot, probabilistic omission of robots from a snapshot, and
///    multiplicity under/over-count flips.
///  * compute faults     — a computed path is dropped (motor never engages)
///    or truncated below the non-rigid delta guarantee (motor stall).
///
/// Determinism: fault draws come from a dedicated RNG stream seeded from
/// (engine seed, plan seed) — see faultStreamSeed — so the adversary and
/// algorithm streams are untouched. Same engine seed + same plan =>
/// bit-identical run. An empty (default) plan injects nothing, draws
/// nothing, and leaves the engine bit-identical to a fault-free build.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace apf::obs {
class Manifest;
struct JsonNode;
}

namespace apf::fault {

/// One scheduled crash-stop fault. The crash fires at the first scheduler
/// event boundary where the engine's processed-event count reaches
/// `atEvent`; if the run terminates earlier the adversary was too slow and
/// the robot survives.
struct CrashFault {
  std::size_t robot = 0;
  std::uint64_t atEvent = 0;
};

/// A composable, seeded set of fault injectors. Value-semantic: copy it
/// into EngineOptions::fault. All probabilities are per-opportunity
/// (per Look for sensor faults, per move-producing Compute for compute
/// faults) and must lie in [0, 1]; sigma is in global-frame units.
struct FaultPlan {
  std::vector<CrashFault> crashes;

  /// Gaussian noise (std dev, global units) added independently to both
  /// coordinates of every non-self point of every snapshot.
  double noiseSigma = 0.0;
  /// Probability that each non-self robot is omitted from a snapshot.
  double omitProb = 0.0;
  /// Probability per snapshot of one multiplicity miscount: a duplicate
  /// point collapses (under-count) or a random point doubles (over-count).
  double multFlipProb = 0.0;
  /// Probability that a computed path is discarded before the robot ever
  /// moves (the robot still completes its cycle where it stands).
  double dropProb = 0.0;
  /// Probability that a computed path is truncated to a uniform fraction
  /// of its length — possibly below the scheduler's delta, i.e. beyond
  /// what non-rigid movement already allows.
  double truncProb = 0.0;

  /// Seed of the fault RNG stream, mixed with the engine seed.
  std::uint64_t seed = 0;

  bool sensorActive() const {
    return noiseSigma > 0.0 || omitProb > 0.0 || multFlipProb > 0.0;
  }
  bool computeActive() const { return dropProb > 0.0 || truncProb > 0.0; }
  /// False for a default-constructed plan: the engine then skips every
  /// fault hook and the run is bit-identical to a pre-fault build.
  bool active() const {
    return !crashes.empty() || sensorActive() || computeActive();
  }
};

/// Human-readable reason the plan is invalid (probability outside [0, 1],
/// negative or non-finite sigma), or nullopt when the plan is usable.
std::optional<std::string> validate(const FaultPlan& plan);

/// The "adversary chooses" helper used by the CLI, fuzzer, and benchmarks:
/// deterministically picks f distinct victim robots (f clamped to n) and
/// crash events spread over [0, horizon) from `seed`.
FaultPlan planWithRandomCrashes(std::size_t n, int f, std::uint64_t seed,
                                std::uint64_t horizon);

/// Records every FaultPlan field under `fault.*` manifest keys (always —
/// clean runs record zeros so fault and fault-free manifests stay
/// comparable in apf_report).
void appendManifest(const FaultPlan& plan, obs::Manifest& manifest);

/// Nested-JSON serialization of a plan — the "fault" object of a
/// `.repro.json` (sim/shrink.h) and of campaign journals. Every field
/// round-trips exactly: doubles are written in shortest form that parses
/// back bit-identical (obs::jsonNumber), so
/// `planFromJson(parseJson(toJson(p)))` reproduces `p` field for field.
std::string toJson(const FaultPlan& plan);

/// Inverse of toJson. Strict, like the scenario decoder that embeds it
/// (sim/scenario.h): throws std::runtime_error when a key is missing,
/// unknown or of the wrong type (a non-object has every key missing).
FaultPlan planFromJson(const obs::JsonNode& node);

/// Mixes the engine seed and plan seed into the fault-stream seed with a
/// splitmix64 finalizer, so the fault stream never aliases the adversary
/// stream even when plan.seed == 0.
std::uint64_t faultStreamSeed(std::uint64_t engineSeed,
                              std::uint64_t planSeed);

}  // namespace apf::fault

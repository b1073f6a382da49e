#pragma once

/// \file engine.h
/// The Look-Compute-Move execution engine with adversarial scheduling.
///
/// Model fidelity notes (paper §2):
///  * Each robot has a private coordinate frame: an unknown rotation, an
///    unknown unit of length, and — unless the run opts into common
///    chirality — possibly a reflection. Robots receive the pattern as raw
///    coordinates, so two robots with opposite handedness "imagine" mirror
///    images of it; the success criterion (similarity with symmetry) makes
///    that immaterial, which is exactly the paper's point.
///  * ASYNC: Look, Compute, and partial Move steps of different robots
///    interleave arbitrarily. A robot Computes on the snapshot captured at
///    its earlier Look (stale by then), and moving robots appear in other
///    robots' snapshots exactly like static ones.
///  * Non-rigid movement: the adversary may stop a moving robot anywhere
///    after it has traveled delta along its computed path. Paths are stored
///    as exact segment/arc geometry, so a robot stopped mid-arc is still
///    exactly on its circle.
///  * Fairness: every robot is activated within any window of
///    `fairnessBound` scheduler events.
///  * Fault injection (beyond the paper's model; see docs/FAULTS.md): an
///    optional FaultPlan adds crash-stop robots, noisy/omitted snapshots,
///    and dropped/truncated paths. Fault draws use a dedicated RNG stream,
///    so an empty plan leaves runs bit-identical to a fault-free build
///    (tests/fault_test.cpp).

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "fault/fault.h"
#include "obs/event.h"
#include "obs/manifest.h"
#include "sched/rng.h"
#include "sched/scheduler.h"
#include "sim/algorithm.h"
#include "sim/metrics.h"
#include "sim/scratch.h"

namespace apf::obs {
class Recorder;
}

namespace apf::sim {

class Watchdog;  // sim/supervisor.h

struct EngineOptions {
  sched::SchedulerOptions sched;
  std::uint64_t seed = 1;
  bool multiplicityDetection = false;
  /// When true all robot frames share a handedness (used by baselines that
  /// assume chirality); when false each frame is reflected with prob. 1/2.
  bool commonChirality = false;
  /// Randomize per-robot rotation and scale (always on for honest runs;
  /// can be disabled in unit tests to make local == global).
  bool randomizeFrames = true;
  /// Hard cap on scheduler events before giving up.
  std::uint64_t maxEvents = 2'000'000;
  /// For SchedulerKind::Scripted: the exact event sequence to execute.
  /// Invalid events (e.g. Move for a robot with no path) are skipped; when
  /// the script is exhausted the run continues under the ASYNC adversary.
  std::vector<sched::ScriptedEvent> script;
  /// Telemetry sink (not owned; must outlive the engine). When nullptr the
  /// hot path pays exactly one branch per would-be event and the run is
  /// bit-identical to an uninstrumented one.
  obs::Recorder* recorder = nullptr;
  /// Collect wall-time metrics (Metrics::lookTime/computeTime/moveTime and
  /// phaseNanos). Implied by a non-null recorder; off by default because
  /// clock reads are not free on the hot path.
  bool collectTimings = false;
  /// Fault injectors applied to this run. The default (empty) plan pays
  /// one branch per event and keeps the run bit-identical to a fault-free
  /// build; the engine constructor throws std::invalid_argument on an
  /// invalid plan (fault::validate).
  fault::FaultPlan fault;
  /// Supervisor deadline (not owned; sim/supervisor.h). Polled once per
  /// scheduler event with Metrics::events, so cycle budgets trip
  /// deterministically at LCM-step granularity; WatchdogExpired propagates
  /// out of run(). nullptr (default) costs one branch per event and leaves
  /// the run bit-identical to an unsupervised one.
  Watchdog* watchdog = nullptr;
};

/// Drives one execution of an algorithm from a start configuration toward a
/// pattern. Deterministic given (inputs, seed).
class Engine {
 public:
  Engine(config::Configuration start, config::Configuration pattern,
         const Algorithm& algo, EngineOptions opts);

  /// Runs to termination or the event cap; returns the outcome.
  RunResult run();

  /// Advances one scheduler round/event. Returns false when terminal.
  bool step();

  /// Current global positions.
  const config::Configuration& positions() const { return current_; }
  /// Phase tag of robot i's most recent Compute (0 before the first).
  int lastPhaseTag(std::size_t i) const { return robots_[i].phaseTag; }
  const config::Configuration& pattern() const { return pattern_; }
  const Metrics& metrics() const { return metrics_; }

  /// True when no robot is moving (or committed to move) and every robot's
  /// most recent completed Compute — on the current configuration — chose
  /// to stay without consuming randomness. Tracked organically: the engine
  /// never probes the algorithm out-of-band.
  bool isTerminal() const;

  /// True when the current configuration is similar to the pattern.
  bool success() const;

  /// n-f success: with f crashed robots, true when the live robots form
  /// the pattern minus some f-point subset (equals success() when f = 0).
  bool liveSuccess() const;

  /// True when robot i was halted by a crash-stop fault.
  bool isCrashed(std::size_t i) const { return robots_[i].crashed; }
  /// Robots halted by crash-stop faults so far.
  std::size_t crashedCount() const { return crashedCount_; }

  /// Called after every event that changes positions (for traces/SVG),
  /// after the safety monitor has checked the move.
  using Observer = std::function<void(const Engine&, std::size_t robot)>;
  void setObserver(Observer obs) { observer_ = std::move(obs); }

 private:
  enum class Phase { Idle, Observed, Ready, Moving };

  struct Robot {
    geom::Similarity frame;  ///< linear part of local frame (global -> local)
    geom::Similarity frameInv;
    Phase phase = Phase::Idle;
    Snapshot snap;        ///< captured at Look
    geom::Path path;      ///< global-frame path being executed
    /// Arclength the robot will actually execute: path.length() normally,
    /// less when a ComputeTruncate fault stalled the motor early.
    double pathLimit = 0;
    bool crashed = false;  ///< crash-stop fault fired; never acts again
    double progress = 0;   ///< arclength already traveled
    int sinceProgress = 0;
    int phaseTag = 0;
    /// Configuration version on which this robot last completed an empty,
    /// randomness-free cycle on an unfaulted snapshot (0 = none yet, or the
    /// last Compute moved, drew a bit, or was dropped). Drives quiescence
    /// (isTerminal) and Compute reuse: a Look that captures this same
    /// version again takes the stay without calling the algorithm.
    std::uint64_t quietVersion = 0;
    /// Configuration version captured by this robot's last Look.
    std::uint64_t snapVersion = 0;
  };

  /// Stamps index/time/context fields and hands `ev` to the recorder.
  /// Callers must already have checked `recorder_ != nullptr`.
  void emit(obs::Event ev);

  /// Rebuilds robot i's snapshot in place, recycling the previous
  /// snapshot's storage (allocation-free in steady state).
  void refreshSnapshot(std::size_t i);
  /// Fires every planned crash whose event threshold has been reached.
  void applyPendingCrashes();
  /// Halts robot i forever, exactly where it stands (mid-path included).
  void crashRobot(std::size_t i, obs::FaultKind kind);
  /// Applies sensor faults (noise/omission/multiplicity flips) to robot
  /// i's freshly captured snapshot.
  void applyLookFaults(std::size_t i);
  /// Applies compute faults (drop/truncate) to a move-producing action;
  /// returns false when the action was dropped entirely.
  bool applyComputeFaults(std::size_t i, Action& act);
  /// The safety monitor, run after every position change of robot i
  /// (the mover). Records the first collision: only the mover can form a
  /// new coincident pair, so comparing it with every live robot is exact.
  /// Records SEC growth from Welzl on the live robots.
  void checkSafety(std::size_t i);
  /// Emits a FaultInjected event and counts it in the metrics.
  void recordFault(std::size_t robot, obs::FaultKind kind, double magnitude);
  /// Runs the algorithm for robot i on its stored snapshot; returns the
  /// global-frame action.
  Action computeFor(std::size_t i, sched::RandomSource& rng);
  void look(std::size_t i);
  /// Returns true when the compute produced a movement.
  bool compute(std::size_t i);
  /// Advances robot i along its path by the whole remainder (full) or by
  /// an adversary-drawn distance; returns true when the path completed.
  bool moveStep(std::size_t i, bool full);
  /// Advances robot i by exactly d, the one move step every scheduler
  /// takes: position, safety monitor, observer, MoveStep event, and the
  /// cycle's end when the path completed (then returns true).
  bool moveBy(std::size_t i, double d);
  void completeCycle(std::size_t i);

  void fsyncRound();
  void ssyncRound();
  void asyncEvent();
  void scriptedEvent();
  std::size_t pickRobot(const std::vector<std::size_t>& eligible);

  config::Configuration current_;
  config::Configuration pattern_;
  const Algorithm& algo_;
  EngineOptions opts_;
  std::vector<Robot> robots_;
  sched::RandomSource rng_;
  Metrics metrics_;
  Observer observer_;
  /// Reusable hot-path buffers (sim/scratch.h). Mutable: const queries
  /// (liveSuccess) borrow buffers too; the engine is single-threaded, so
  /// the reuse never races.
  mutable Scratch scratch_;

  obs::Recorder* recorder_ = nullptr;
  bool timed_ = false;
  std::uint64_t eventIndex_ = 0;
  std::uint64_t startNanos_ = 0;

  std::uint64_t configVersion_ = 1;
  std::size_t scriptPos_ = 0;

  /// Fault-injection state. `faultsOn_` caches plan.active() so the
  /// fault-free hot path pays exactly one branch per event.
  bool faultsOn_ = false;
  std::mt19937_64 faultRng_;
  std::vector<bool> crashFired_;
  std::size_t crashedCount_ = 0;

  /// Safety-monitor state (checkSafety).
  SafetyRecord safety_;
  bool patternHasMultiplicity_ = false;
  double startSecRadius_ = 0.0;
};

/// Builds the reproducibility manifest for a run: seed, every
/// EngineOptions / SchedulerOptions field, algorithm and pattern labels,
/// n, and build info. Any CSV row or event log accompanied by this
/// manifest can be re-run exactly.
obs::Manifest describeRun(const EngineOptions& opts,
                          const std::string& algoName,
                          const std::string& patternLabel, std::size_t n);

/// Appends the result summary (`result.*` keys) to a run manifest. The
/// `result.safety.*` keys appear only when the safety monitor fired.
void appendResult(obs::Manifest& manifest, const RunResult& result);

/// One line naming the first violation in `s` (empty when none fired).
std::string describeViolation(const SafetyRecord& s);

}  // namespace apf::sim

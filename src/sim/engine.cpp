#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "config/similarity.h"
#include "geom/angle.h"
#include "geom/sec.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "sim/supervisor.h"

namespace apf::sim {

using config::Configuration;
using geom::Path;
using geom::Similarity;
using geom::Vec2;

Engine::Engine(Configuration start, Configuration pattern,
               const Algorithm& algo, EngineOptions opts)
    : current_(std::move(start)),
      pattern_(std::move(pattern)),
      algo_(algo),
      opts_(opts),
      rng_(opts.seed) {
  robots_.resize(current_.size());
  auto& adv = rng_.adversaryEngine();
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> uscale(-0.6, 0.6);
  for (Robot& r : robots_) {
    double angle = 0.0, scale = 1.0;
    bool reflect = false;
    if (opts_.randomizeFrames) {
      angle = uang(adv);
      scale = std::exp(uscale(adv));
      if (!opts_.commonChirality) reflect = (adv() & 1u) != 0;
    }
    r.frame = Similarity(angle, scale, reflect, {});
    r.frameInv = r.frame.inverse();
  }
  if (const auto err = fault::validate(opts_.fault)) {
    throw std::invalid_argument("EngineOptions::fault: " + *err);
  }
  faultsOn_ = opts_.fault.active();
  if (faultsOn_) {
    faultRng_.seed(fault::faultStreamSeed(opts_.seed, opts_.fault.seed));
    crashFired_.assign(opts_.fault.crashes.size(), false);
  }
  // Multiplicity in the TARGET is intended, so collisions are not checked.
  patternHasMultiplicity_ = pattern_.hasMultiplicity();
  // liveSec_, not current_.sec(): the monitor moves no cache counter.
  startSecRadius_ = liveSec_.of(current_.span()).radius;
  scratch_.reserveFor(current_.size());
  recorder_ = opts_.recorder;
  timed_ = opts_.collectTimings || recorder_ != nullptr;
  startNanos_ = obs::nowNanos();
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunStart;
    emit(ev);
  }
}

void Engine::emit(obs::Event ev) {
  ev.index = eventIndex_++;
  ev.wallNanos = obs::nowNanos() - startNanos_;
  ev.schedEvent = metrics_.events;
  ev.configVersion = configVersion_;
  recorder_->record(ev);
}

void Engine::refreshSnapshot(std::size_t i) {
  Robot& r = robots_[i];
  const Vec2 self = current_[i];
  // Recycle the previous snapshot's own storage: release its vector, refill
  // it, hand it back. After the first Look per robot this allocates nothing.
  std::vector<Vec2> local = r.snap.robots.releasePoints();
  local.clear();
  local.reserve(current_.size());
  for (const Vec2& p : current_.points()) local.push_back(r.frame.apply(p - self));
  r.snap.robots.assign(std::move(local));
  r.snap.selfIndex = i;
  // The pattern is handed to every robot as the same raw coordinate list;
  // a robot with a reflected frame thereby "intends" the mirror image in
  // global terms, which the similarity-with-symmetry success criterion
  // absorbs. The pattern never changes mid-run, so the copy happens once
  // per robot; the copy carries pattern_'s warmed geometry caches.
  if (r.snap.pattern.empty()) r.snap.pattern = pattern_;
  r.snap.multiplicityDetection = opts_.multiplicityDetection;
}

void Engine::applyPendingCrashes() {
  const auto& crashes = opts_.fault.crashes;
  for (std::size_t k = 0; k < crashes.size(); ++k) {
    if (crashFired_[k] || metrics_.events < crashes[k].atEvent) continue;
    crashFired_[k] = true;
    if (crashes[k].robot < robots_.size()) {
      crashRobot(crashes[k].robot, obs::FaultKind::Crash);
    }
  }
}

void Engine::crashRobot(std::size_t i, obs::FaultKind kind) {
  Robot& r = robots_[i];
  if (r.crashed) return;
  // Crash-stop: the robot freezes exactly where it stands — a mid-Move
  // robot stays on its committed path and remains visible to every later
  // snapshot; it just never acts again.
  r.crashed = true;
  r.phase = Phase::Idle;
  ++crashedCount_;
  metrics_.crashed += 1;
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::RobotCrashed;
    ev.robot = static_cast<std::int64_t>(i);
    ev.faultKind = kind;
    emit(ev);
  }
}

void Engine::recordFault(std::size_t robot, obs::FaultKind kind,
                         double magnitude) {
  metrics_.faultsInjected += 1;
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::FaultInjected;
    ev.robot = static_cast<std::int64_t>(robot);
    ev.faultKind = kind;
    ev.distance = magnitude;
    emit(ev);
  }
}

void Engine::applyLookFaults(std::size_t i) {
  const fault::FaultPlan& fp = opts_.fault;
  if (!fp.sensorActive()) return;
  Robot& r = robots_[i];
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // normal_distribution requires sigma > 0; it is drawn from only when
  // noiseSigma > 0, so the placeholder 1.0 is never used.
  std::normal_distribution<double> gauss(
      0.0, fp.noiseSigma > 0.0 ? fp.noiseSigma : 1.0);
  const auto& pts = r.snap.robots.points();
  // Build the filtered copy in the scratch spare, then swap it with the
  // snapshot's storage below — two buffers ping-pong forever, zero
  // steady-state allocations.
  std::vector<Vec2> kept = std::move(scratch_.points);
  kept.clear();
  // +1: an over-count multiplicity flip appends one duplicate beyond the
  // snapshot size; reserving for it keeps even flip events allocation-free.
  kept.reserve(pts.size() + 1);
  std::size_t newSelf = 0;
  std::size_t omitted = 0;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j == r.snap.selfIndex) {
      // A robot always perceives itself (at its local origin), exactly.
      newSelf = kept.size();
      kept.push_back(pts[j]);
      continue;
    }
    if (fp.omitProb > 0.0 && u(faultRng_) < fp.omitProb) {
      ++omitted;
      continue;
    }
    Vec2 p = pts[j];
    if (fp.noiseSigma > 0.0) {
      // Sigma is in global units; the frame is linear (zero translation),
      // so a global noise vector maps through applyLinear and composes
      // additively with the observed offset.
      p += r.frame.applyLinear(Vec2{gauss(faultRng_), gauss(faultRng_)});
    }
    kept.push_back(p);
  }
  bool flipped = false;
  if (fp.multFlipProb > 0.0 && kept.size() >= 2 &&
      u(faultRng_) < fp.multFlipProb) {
    // Under-count when a multiplicity is visible (one co-located point
    // vanishes), over-count otherwise (a random point doubles).
    std::size_t dropIdx = kept.size();
    const geom::Tol tol{1e-9, 1e-9};
    for (std::size_t a = 0; a + 1 < kept.size() && dropIdx == kept.size();
         ++a) {
      for (std::size_t b = a + 1; b < kept.size(); ++b) {
        if (geom::nearlyEqual(kept[a], kept[b], tol)) {
          dropIdx = (b == newSelf) ? a : b;
          break;
        }
      }
    }
    if (dropIdx < kept.size()) {
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(dropIdx));
      if (dropIdx < newSelf) --newSelf;
    } else {
      kept.push_back(kept[faultRng_() % kept.size()]);
    }
    flipped = true;
  }
  const bool noisy = fp.noiseSigma > 0.0 && kept.size() > 1;
  scratch_.points = r.snap.robots.releasePoints();
  r.snap.robots.assign(std::move(kept));
  r.snap.selfIndex = newSelf;
  if (noisy) recordFault(i, obs::FaultKind::SensorNoise, fp.noiseSigma);
  if (omitted > 0) {
    recordFault(i, obs::FaultKind::SensorOmission,
                static_cast<double>(omitted));
  }
  if (flipped) recordFault(i, obs::FaultKind::MultiplicityFlip, 0.0);
}

bool Engine::applyComputeFaults(std::size_t i, Action& act) {
  const fault::FaultPlan& fp = opts_.fault;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (fp.dropProb > 0.0 && u(faultRng_) < fp.dropProb) {
    // Motor never engages: the computed path is discarded and the robot
    // finishes its cycle where it stands (but is NOT quiescent — it
    // wanted to move).
    recordFault(i, obs::FaultKind::ComputeDrop, 0.0);
    act.path = geom::Path{};
    return false;
  }
  if (fp.truncProb > 0.0 && u(faultRng_) < fp.truncProb) {
    // Motor stall: the robot will execute only a uniform fraction of its
    // path — possibly less than delta, beyond what non-rigid movement
    // already permits.
    const double frac = u(faultRng_);
    robots_[i].pathLimit = frac * act.path.length();
    recordFault(i, obs::FaultKind::ComputeTruncate, frac);
  }
  return true;
}

void Engine::checkSafety(std::size_t i) {
  if (robots_.size() - crashedCount_ < 2) return;
  if (!safety_.collision && !patternHasMultiplicity_) {
    // Before this move no two live robots coincided (else the record would
    // be set), so any coincident pair now includes the mover. A
    // multiplicity already in the start was not made by a move and stays
    // unflagged.
    const geom::Tol tol{1e-9, 1e-9};
    for (std::size_t j = 0; j < robots_.size(); ++j) {
      if (j == i || robots_[j].crashed) continue;
      if (geom::nearlyEqual(current_[j], current_[i], tol)) {
        safety_.collision = SafetyRecord::Collision{
            metrics_.events, i, j, robots_[i].phaseTag, robots_[j].phaseTag};
        break;
      }
    }
  }
  // The live circle comes from liveSec_, which returns Welzl's circle bit
  // for bit: the carried one when its certificate proves Welzl would build
  // it again (geom::SecCarry), else Welzl's own. So maxSecGrowth keeps the
  // bits plain Welzl gives it. The certificate needs the same point count
  // and the basis' bits at the same indices: a crash shrinks `live` and
  // hands over to Welzl once. liveSec_ is the engine's own and counts no
  // cache hit or miss.
  std::span<const Vec2> live = current_.span();
  if (crashedCount_ > 0) {
    scratch_.live.clear();
    for (std::size_t j = 0; j < robots_.size(); ++j) {
      if (!robots_[j].crashed) scratch_.live.push_back(current_[j]);
    }
    live = scratch_.live;
  }
  const double growth = liveSec_.of(live).radius / startSecRadius_;
  safety_.maxSecGrowth = std::max(safety_.maxSecGrowth, growth);
  if (growth > SafetyRecord::kSecGrowthBound && !safety_.secGrowth) {
    safety_.secGrowth = SafetyRecord::SecGrowth{metrics_.events, growth};
  }
}

Action Engine::computeFor(std::size_t i, sched::RandomSource& rng) {
  Robot& r = robots_[i];
  Action local = algo_.compute(r.snap, rng);
  if (!local.isMove()) return local;
  // Map the local-frame path back to the global frame: the local path starts
  // at the robot's position (local origin).
  Action global = local;
  Similarity toGlobal =
      Similarity::translation(current_[i]) * r.frameInv;
  global.path = local.path.transformed(toGlobal);
  return global;
}

void Engine::look(std::size_t i) {
  obs::ScopedSpan span("look", "engine", "robot",
                       static_cast<std::int64_t>(i));
  const std::uint64_t t0 = timed_ ? obs::nowNanos() : 0;
  refreshSnapshot(i);
  robots_[i].snapVersion = configVersion_;
  robots_[i].phase = Phase::Observed;
  if (timed_) metrics_.lookTime.add(obs::nowNanos() - t0);
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::Look;
    ev.robot = static_cast<std::int64_t>(i);
    emit(ev);
  }
  if (faultsOn_) applyLookFaults(i);
}

bool Engine::compute(std::size_t i) {
  Robot& r = robots_[i];
  obs::ScopedSpan span("compute", "engine", "robot",
                       static_cast<std::int64_t>(i));
  const std::uint64_t bitsBefore = rng_.bitsConsumed();
  const std::uint64_t t0 = timed_ ? obs::nowNanos() : 0;
  // Robots are oblivious: a Compute depends only on the snapshot and the
  // bits it draws. quietVersion == snapVersion means the previous Compute
  // saw this same configuration version (hence a bitwise-equal snapshot)
  // and stayed without drawing a bit, so the algorithm would answer with
  // that same stay again.
  const bool reuse = r.quietVersion == r.snapVersion;
  if (reuse) metrics_.computesReused += 1;
  Action act = reuse ? Action::stay(r.phaseTag) : computeFor(i, rng_);
  span.arg2("phase", act.phaseTag);
  const std::uint64_t durNanos = timed_ ? obs::nowNanos() - t0 : 0;
  const std::uint64_t bitsUsed = rng_.bitsConsumed() - bitsBefore;
  const std::uint64_t staleness = configVersion_ - r.snapVersion;
  metrics_.randomBits += bitsUsed;
  metrics_.phaseActivations[act.phaseTag] += 1;
  metrics_.staleness.add(staleness);
  if (act.electionRound) metrics_.electionRounds += 1;
  if (timed_) {
    metrics_.computeTime.add(durNanos);
    metrics_.phaseNanos[act.phaseTag] += durNanos;
  }
  if (recorder_) {
    obs::Event ev;
    ev.robot = static_cast<std::int64_t>(i);
    ev.phaseTag = act.phaseTag;
    ev.bitsUsed = bitsUsed;
    if (act.phaseTag != r.phaseTag) {
      ev.kind = obs::EventKind::PhaseTransition;
      ev.phaseFrom = r.phaseTag;
      emit(ev);
      ev.phaseFrom = 0;
    }
    ev.kind = obs::EventKind::Compute;
    ev.staleness = staleness;
    ev.durNanos = durNanos;
    emit(ev);
    if (act.electionRound) {
      ev.kind = obs::EventKind::ElectionRound;
      ev.staleness = 0;
      ev.durNanos = 0;
      emit(ev);
    }
  }
  r.phaseTag = act.phaseTag;
  bool dropped = false;
  if (act.isMove()) {
    r.pathLimit = act.path.length();
    if (faultsOn_ && opts_.fault.computeActive()) {
      dropped = !applyComputeFaults(i, act);
    }
  }
  if (!act.isMove()) {
    // An empty, randomness-free decision counts toward quiescence, credited
    // to the configuration version the decision was actually based on (the
    // snapshot may be stale by compute time). A dropped path never counts:
    // the robot wanted to move. Neither does any decision based on a
    // stochastically faulted snapshot (noise/omission/mult-flip): "stayed
    // once" does not imply "stays forever" when the next Look may perceive
    // a different world, so such runs end only on success or event budget.
    const bool provablyQuiet =
        bitsUsed == 0 && !dropped && !(faultsOn_ && opts_.fault.sensorActive());
    r.quietVersion = provablyQuiet ? r.snapVersion : 0;
    completeCycle(i);
    return false;
  }
  r.quietVersion = 0;
  r.path = std::move(act.path);
  r.progress = 0.0;
  r.phase = Phase::Ready;
  return true;
}

bool Engine::moveStep(std::size_t i, bool full) {
  const Robot& r = robots_[i];
  // pathLimit == path.length() unless a ComputeTruncate fault stalled the
  // motor early; progress never exceeds it.
  const double remaining = r.pathLimit - r.progress;
  double d = remaining;
  if (!full && remaining > opts_.sched.delta) {
    auto& adv = rng_.adversaryEngine();
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(adv) < opts_.sched.earlyStopProb) {
      d = opts_.sched.delta;
    } else {
      d = opts_.sched.delta + u(adv) * (remaining - opts_.sched.delta);
    }
  }
  return moveBy(i, d);
}

bool Engine::moveBy(std::size_t i, double d) {
  Robot& r = robots_[i];
  obs::ScopedSpan span("move", "engine", "robot",
                       static_cast<std::int64_t>(i));
  span.arg2("phase", r.phaseTag);
  const std::uint64_t t0 = timed_ ? obs::nowNanos() : 0;
  r.phase = Phase::Moving;
  r.progress += d;
  current_[i] = r.path.pointAt(r.progress);
  metrics_.distance += d;
  if (timed_) metrics_.moveTime.add(obs::nowNanos() - t0);
  if (d > 0.0) {
    ++configVersion_;
    checkSafety(i);
    if (observer_) observer_(*this, i);
  }
  const bool done = r.progress >= r.pathLimit - 1e-15;
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::MoveStep;
    ev.robot = static_cast<std::int64_t>(i);
    ev.phaseTag = r.phaseTag;
    ev.distance = d;
    ev.flag = done;
    emit(ev);
  }
  if (done) completeCycle(i);
  return done;
}

void Engine::completeCycle(std::size_t i) {
  robots_[i].phase = Phase::Idle;
  metrics_.cycles += 1;
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::CycleComplete;
    ev.robot = static_cast<std::int64_t>(i);
    ev.phaseTag = robots_[i].phaseTag;
    emit(ev);
  }
}

void Engine::fsyncRound() {
  // Lock-step: every live robot Looks at the same configuration, then
  // everyone Computes, then all moves are executed fully and
  // simultaneously. Crashed robots are inert but stay observable.
  std::size_t live = 0;
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    if (robots_[i].crashed) continue;
    look(i);
    ++live;
  }
  auto& movers = scratch_.movers;
  movers.clear();
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    if (robots_[i].crashed) continue;
    if (compute(i)) movers.push_back(i);
  }
  for (std::size_t i : movers) moveStep(i, /*full=*/true);
  metrics_.events += live;
}

void Engine::ssyncRound() {
  auto& adv = rng_.adversaryEngine();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto& liveIdx = scratch_.liveIdx;
  liveIdx.clear();
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    if (!robots_[i].crashed) liveIdx.push_back(i);
  }
  if (liveIdx.empty()) return;
  auto& active = scratch_.active;
  active.clear();
  for (std::size_t i : liveIdx) {
    if (u(adv) < opts_.sched.activationProb ||
        robots_[i].sinceProgress > opts_.sched.fairnessBound) {
      active.push_back(i);
    }
  }
  if (active.empty()) {
    active.push_back(liveIdx[adv() % liveIdx.size()]);
  }
  for (std::size_t i : active) look(i);
  auto& movers = scratch_.movers;
  movers.clear();
  for (std::size_t i : active) {
    if (compute(i)) movers.push_back(i);
  }
  // SSYNC cycles are atomic but movement is still non-rigid: the adversary
  // may stop each mover after delta.
  for (std::size_t i : movers) moveStep(i, /*full=*/false);
  // Any mover stopped short completes its cycle anyway: in SSYNC the cycle
  // is atomic, the robot simply did not reach its destination.
  for (std::size_t i : movers) {
    if (robots_[i].phase == Phase::Moving) completeCycle(i);
  }
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    robots_[i].sinceProgress =
        std::find(active.begin(), active.end(), i) != active.end()
            ? 0
            : robots_[i].sinceProgress + 1;
  }
  metrics_.events += active.size();
}

std::size_t Engine::pickRobot(const std::vector<std::size_t>& eligible) {
  // Fairness first: any starving robot is forced.
  for (std::size_t i : eligible) {
    if (robots_[i].sinceProgress > opts_.sched.fairnessBound) return i;
  }
  auto& adv = rng_.adversaryEngine();
  return eligible[adv() % eligible.size()];
}

void Engine::asyncEvent() {
  auto& eligible = scratch_.eligible;
  eligible.clear();
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    if (!robots_[i].crashed) eligible.push_back(i);
  }
  if (eligible.empty()) return;
  const std::size_t i = pickRobot(eligible);
  Robot& r = robots_[i];
  switch (r.phase) {
    case Phase::Idle:
      look(i);
      break;
    case Phase::Observed:
      compute(i);
      break;
    case Phase::Ready:
    case Phase::Moving:
      moveStep(i, /*full=*/false);
      break;
  }
  for (std::size_t j = 0; j < robots_.size(); ++j) {
    robots_[j].sinceProgress = (j == i) ? 0 : robots_[j].sinceProgress + 1;
  }
  metrics_.events += 1;
}

void Engine::scriptedEvent() {
  if (scriptPos_ >= opts_.script.size()) {
    // Script exhausted: continue under the ASYNC adversary.
    asyncEvent();
    return;
  }
  const sched::ScriptedEvent ev = opts_.script[scriptPos_++];
  metrics_.events += 1;
  if (ev.robot >= robots_.size()) return;
  Robot& r = robots_[ev.robot];
  if (r.crashed) return;  // crash-stop: every later op is a no-op
  switch (ev.op) {
    case sched::ScriptedEvent::Op::Crash:
      crashRobot(ev.robot, obs::FaultKind::Crash);
      break;
    case sched::ScriptedEvent::Op::Look:
      if (r.phase == Phase::Idle) look(ev.robot);
      break;
    case sched::ScriptedEvent::Op::Compute:
      if (r.phase == Phase::Observed) compute(ev.robot);
      break;
    case sched::ScriptedEvent::Op::Move: {
      if (r.phase != Phase::Ready && r.phase != Phase::Moving) break;
      if (ev.distance <= 0.0) {
        moveStep(ev.robot, /*full=*/true);
        break;
      }
      // Explicit distance, clamped to the model's [delta, remaining].
      const double remaining = r.pathLimit - r.progress;
      moveBy(ev.robot,
             std::min(remaining, std::max(ev.distance, opts_.sched.delta)));
      break;
    }
  }
}

bool Engine::isTerminal() const {
  for (const Robot& r : robots_) {
    if (r.crashed) continue;  // a crashed robot is quiescent by force
    if (r.phase == Phase::Ready || r.phase == Phase::Moving) return false;
    if (r.quietVersion != configVersion_) return false;
  }
  return true;
}

bool Engine::success() const {
  // Matching tolerance mirrors the algorithms' own stopping thresholds
  // (robots stop within 1e-7 of their targets); matching is performed on
  // SEC-normalized coordinates, so this is scale-free.
  return config::similar(current_, pattern_, geom::Tol{1e-6, 1e-6});
}

bool Engine::liveSuccess() const {
  if (crashedCount_ == 0) return success();
  const std::size_t n = pattern_.size();
  const std::size_t f = crashedCount_;
  if (f >= n) return false;
  // Borrow scratch buffers; Configuration::assign/releasePoints shuttle
  // their storage through the similarity checks without reallocating.
  std::vector<Vec2> livePts = std::move(scratch_.live);
  livePts.clear();
  livePts.reserve(n - f);
  for (std::size_t i = 0; i < robots_.size(); ++i) {
    if (!robots_[i].crashed) livePts.push_back(current_[i]);
  }
  Configuration live;
  live.assign(std::move(livePts));
  // The f crashed robots forfeit f pattern points, but which ones is the
  // adversary's secret: accept the live robots forming the pattern minus
  // ANY f-point subset. C(n, f) is tiny for the f <= 2 regime the
  // benchmarks sweep; guard exotic callers anyway.
  double combos = 1.0;
  for (std::size_t k = 0; k < f; ++k) {
    combos *= static_cast<double>(n - k) / static_cast<double>(k + 1);
  }
  if (combos > 50000.0) {
    scratch_.live = live.releasePoints();
    return false;
  }
  const geom::Tol tol{1e-6, 1e-6};
  auto& drop = scratch_.drop;
  drop.clear();
  for (std::size_t k = 0; k < f; ++k) drop.push_back(k);
  std::vector<Vec2> reduced = std::move(scratch_.reduced);
  Configuration reducedCfg;
  bool matched = false;
  bool advanced = true;
  while (advanced) {
    reduced.clear();
    reduced.reserve(n - f);
    std::size_t di = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (di < f && drop[di] == j) {
        ++di;
        continue;
      }
      reduced.push_back(pattern_[j]);
    }
    reducedCfg.assign(std::move(reduced));
    matched = config::similar(live, reducedCfg, tol);
    reduced = reducedCfg.releasePoints();
    if (matched) break;
    // Advance to the lexicographically next f-combination of [0, n).
    std::size_t k = f;
    advanced = false;
    while (k-- > 0) {
      if (drop[k] + (f - k) < n) {
        ++drop[k];
        for (std::size_t l = k + 1; l < f; ++l) drop[l] = drop[l - 1] + 1;
        advanced = true;
        break;
      }
    }
  }
  scratch_.live = live.releasePoints();
  scratch_.reduced = std::move(reduced);
  return matched;
}

bool Engine::step() {
  if (faultsOn_ && !opts_.fault.crashes.empty()) applyPendingCrashes();
  if (isTerminal()) return false;
  switch (opts_.sched.kind) {
    case sched::SchedulerKind::FSync:
      fsyncRound();
      break;
    case sched::SchedulerKind::SSync:
      ssyncRound();
      break;
    case sched::SchedulerKind::Async:
      asyncEvent();
      break;
    case sched::SchedulerKind::Scripted:
      scriptedEvent();
      break;
  }
  return true;
}

RunResult Engine::run() {
  obs::ScopedSpan span("engine_run", "engine", "n",
                       static_cast<std::int64_t>(current_.size()));
  RunResult res;
  // Per-run delta of the thread-local geometry-cache counters: the run is
  // confined to this thread, so the delta is deterministic for any APF_JOBS.
  const config::GeomCacheCounters countersBefore = config::geomCacheCounters();
  // With stochastic sensor faults quiescence is never inferred (see
  // compute()), so poll for pattern formation instead — throttled, since
  // similarity matching is much dearer than a scheduler event.
  const bool pollSuccess = faultsOn_ && opts_.fault.sensorActive();
  std::uint64_t lastPoll = 0;
  while (metrics_.events < opts_.maxEvents) {
    if (opts_.watchdog != nullptr) opts_.watchdog->poll(metrics_.events);
    if (!step()) {
      res.terminated = true;
      break;
    }
    if (pollSuccess && metrics_.events - lastPoll >= 512) {
      lastPoll = metrics_.events;
      if (success()) {
        res.terminated = true;
        break;
      }
    }
  }
  res.success = success();
  if (safety_.collision) {
    res.outcome = Outcome::SafetyViolation;
  } else if (crashedCount_ == 0 ? res.success : liveSuccess()) {
    res.outcome = Outcome::Success;
  } else if (crashedCount_ > 0) {
    res.outcome = Outcome::CrashedShort;
  } else {
    res.outcome = Outcome::Stalled;
  }
  res.finalPositions = current_;
  const config::GeomCacheCounters& countersNow = config::geomCacheCounters();
  metrics_.secCacheHits = countersNow.secHits - countersBefore.secHits;
  metrics_.secCacheMisses = countersNow.secMisses - countersBefore.secMisses;
  metrics_.weberCacheHits = countersNow.weberHits - countersBefore.weberHits;
  metrics_.weberCacheMisses =
      countersNow.weberMisses - countersBefore.weberMisses;
  res.metrics = metrics_;
  res.safety = safety_;
  if (recorder_) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunEnd;
    ev.distance = metrics_.distance;
    ev.flag = res.success;
    emit(ev);
    recorder_->flush();
  }
  return res;
}

obs::Manifest describeRun(const EngineOptions& opts,
                          const std::string& algoName,
                          const std::string& patternLabel, std::size_t n) {
  obs::Manifest m;
  obs::addBuildInfo(m);
  m.set("algo", algoName);
  m.set("pattern", patternLabel);
  m.set("n", static_cast<std::uint64_t>(n));
  m.set("seed", opts.seed);
  m.set("engine.max_events", opts.maxEvents);
  m.set("engine.multiplicity_detection", opts.multiplicityDetection);
  m.set("engine.common_chirality", opts.commonChirality);
  m.set("engine.randomize_frames", opts.randomizeFrames);
  m.set("engine.collect_timings", opts.collectTimings);
  m.set("engine.script_events",
        static_cast<std::uint64_t>(opts.script.size()));
  sched::appendManifest(opts.sched, m);
  fault::appendManifest(opts.fault, m);
  return m;
}

void appendResult(obs::Manifest& m, const RunResult& res) {
  const Metrics& mx = res.metrics;
  m.set("result.terminated", res.terminated);
  m.set("result.success", res.success);
  m.set("result.outcome", outcomeName(res.outcome));
  m.set("result.crashed", mx.crashed);
  m.set("result.faults_injected", mx.faultsInjected);
  m.set("result.cycles", mx.cycles);
  m.set("result.events", mx.events);
  m.set("result.random_bits", mx.randomBits);
  m.set("result.distance", mx.distance);
  m.set("result.election_rounds", mx.electionRounds);
  m.set("result.computes_reused", mx.computesReused);
  m.set("result.stale.mean", mx.staleness.mean());
  m.set("result.stale.p95", mx.staleness.quantileUpperBound(0.95));
  m.set("result.stale.max", mx.staleness.max());
  m.set("result.geom.sec_cache_hits", mx.secCacheHits);
  m.set("result.geom.sec_cache_misses", mx.secCacheMisses);
  m.set("result.geom.weber_cache_hits", mx.weberCacheHits);
  m.set("result.geom.weber_cache_misses", mx.weberCacheMisses);
  for (const auto& [tag, count] : mx.phaseActivations) {
    m.set("result.phase." + std::to_string(tag) + ".activations", count);
  }
  for (const auto& [tag, nanos] : mx.phaseNanos) {
    m.set("result.phase." + std::to_string(tag) + ".ns", nanos);
  }
  if (mx.lookTime.count() != 0 || mx.computeTime.count() != 0 ||
      mx.moveTime.count() != 0) {
    m.set("result.time.look_ns", mx.lookTime.nanos());
    m.set("result.time.compute_ns", mx.computeTime.nanos());
    m.set("result.time.move_ns", mx.moveTime.nanos());
  }
  const SafetyRecord& s = res.safety;
  if (!s.violated()) return;  // clean documents keep their exact bytes
  if (const auto& c = s.collision) {
    m.set("result.safety.collision.event", c->event);
    m.set("result.safety.collision.robot",
          static_cast<std::uint64_t>(c->robot));
    m.set("result.safety.collision.other",
          static_cast<std::uint64_t>(c->other));
    m.set("result.safety.collision.robot_phase", c->robotPhase);
    m.set("result.safety.collision.other_phase", c->otherPhase);
  }
  if (const auto& g = s.secGrowth) {
    m.set("result.safety.sec_growth.event", g->event);
    m.set("result.safety.sec_growth.factor", g->factor);
  }
  m.set("result.safety.max_sec_growth", s.maxSecGrowth);
}

std::string describeViolation(const SafetyRecord& s) {
  std::ostringstream os;
  if (s.collisionFirst()) {
    const SafetyRecord::Collision& c = *s.collision;
    os << "collision: event " << c.event << ", robot " << c.robot
       << " (phase " << c.robotPhase << ") on robot " << c.other
       << " (phase " << c.otherPhase << ")";
  } else if (s.secGrowth) {
    os << "SEC grew x" << s.secGrowth->factor << ": event "
       << s.secGrowth->event;
  }
  return os.str();
}

}  // namespace apf::sim

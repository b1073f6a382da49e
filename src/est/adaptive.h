#pragma once

/// \file adaptive.h
/// Adaptive Monte Carlo campaign driver (docs/STATISTICS.md): layered on
/// sim::superviseCampaign, it schedules deterministic BATCHES of seeded
/// trials, folds each batch's per-sample results into mergeable streaming
/// summaries (estimators.h), and consults a sequential stopping rule
/// (stopping.h) at every batch boundary — so a campaign spends exactly as
/// many samples as the requested precision needs, instead of a guessed
/// fixed count.
///
/// Determinism contract (tests/est_test.cpp, CI estimate-smoke):
///  * Trial seeds are a pure function of (base seed, global sample index)
///    via sched::sampleSeed — the single audited splitmix64 derivation
///    path shared with the supervisor's retry salts (sched/seed.h).
///  * Batch b always covers global sample indices
///    [b*batchSize, min((b+1)*batchSize, maxSamples)). Scheduling is
///    decided BEFORE the batch runs; nothing mid-batch can alter it.
///  * Within a batch, samples feed the summaries in strict global-index
///    order (sim::superviseCampaign's merge-order guarantee), and batch
///    summaries merge into the arm total in batch order. The stopping
///    decision therefore sees bit-identical state at every boundary
///    REGARDLESS of APF_JOBS — the stopping batch, the final intervals,
///    and the serialized report are byte-identical for any thread count.
///  * The report contains no wall-clock fields.
///  * Every sample travels as its Sample::toJson() payload and the
///    summaries are fed from Sample::fromJson of it, journal or not. With
///    a sim::CampaignJournal attached, each batch is one journaled
///    superviseCampaign call: completed samples are appended + fsync'd
///    under their global index, and journaled ones replay their payload
///    instead of running — so a campaign killed mid-batch and resumed
///    converges to the byte-identical report.
///
/// The driver is algorithm-agnostic: a Trial callback maps
/// (seed, sample index) to a Sample {success, cycles, events, bits}. The
/// apf_estimate CLI and bench_estimate wire it to sim::Engine runs;
/// tests use synthetic trials.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "est/estimators.h"
#include "est/stopping.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "sim/supervisor.h"

namespace apf::est {

/// Per-trial observation: the quantities the paper's claims are stated in.
struct Sample {
  bool success = false;
  double cycles = 0.0;  ///< completed LCM cycles, summed over robots
  double events = 0.0;  ///< scheduler events (the ASYNC round currency)
  std::uint64_t bits = 0;  ///< algorithm random bits (sched/rng.h ledger)

  /// Flat-JSON encoding. fromJson(toJson()) is exact (shortest round-trip
  /// doubles, integer bits), which is what lets journaled and fresh
  /// campaigns share one canonical summary path.
  std::string toJson() const;
  static Sample fromJson(std::string_view text);
};

/// Maps (seed, global sample index) to one observation. Must be a pure
/// function of its arguments plus thread-confined state (it runs on
/// campaign worker threads; see sim/campaign.h's worker contract).
using Trial = std::function<Sample(std::uint64_t seed, std::uint64_t index)>;

struct AdaptiveOptions {
  StoppingOptions stop;
  /// Root of the per-sample seed family (sched::sampleSeed(baseSeed, i)).
  std::uint64_t baseSeed = 1;
  /// Campaign worker threads: 0 = APF_JOBS / hardware (sim::campaignJobs),
  /// 1 = serial. Any value produces the byte-identical report.
  int jobs = 0;
  /// Sink for batch_scheduled / estimate_converged events, emitted on the
  /// calling thread only. Events carry no wall-clock (wallNanos = 0) so
  /// instrumented adaptive runs stay deterministic.
  obs::Recorder* recorder = nullptr;
  /// Crash-safe checkpoint (sim/supervisor.h). Completed samples found in
  /// the journal are not re-run; fresh ones are appended + fsync'd under
  /// their global sample index before they are counted. Not owned.
  sim::CampaignJournal* journal = nullptr;
};

/// Final state of one estimation arm.
struct ArmEstimate {
  std::string label;
  std::uint64_t baseSeed = 0;
  std::uint64_t samples = 0;  ///< trials actually consumed
  std::uint64_t batches = 0;  ///< batches scheduled (== batch_scheduled events)
  std::uint64_t maxSamples = 0;  ///< the budget the run was allowed
  double confidence = 0.95;
  StopReason stopReason = StopReason::MaxSamples;
  /// True when a precision/futility rule fired BEFORE the max budget —
  /// i.e. adaptivity actually saved samples.
  bool converged = false;

  BernoulliSummary success;
  MomentSummary cycles;
  MomentSummary events;
  MomentSummary bits;

  /// Nested JSON fragment: summaries plus Wilson/Clopper–Pearson bounds on
  /// the success rate and empirical-Bernstein bounds on the means, all at
  /// `confidence`. No wall-clock fields. Byte-stable given equal state.
  std::string toJson() const;
};

/// `est.*` manifest keys for one arm (consumed by apf_report's estimation
/// section; `prefix` distinguishes arms in a multi-arm manifest, e.g.
/// "est.a." — default "est.").
void appendManifest(const ArmEstimate& arm, obs::Manifest& manifest,
                    const std::string& prefix = "est.");

/// Runs one adaptive estimation arm. Throws std::invalid_argument on bad
/// stopping options. A `trial` that throws std::exception makes it throw
/// std::runtime_error with the trial's message once that batch's other
/// samples finish (and are journaled).
ArmEstimate runAdaptive(const std::string& label, const Trial& trial,
                        const AdaptiveOptions& opts);

}  // namespace apf::est

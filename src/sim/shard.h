#pragma once

/// \file shard.h
/// Sharded campaign execution behind a versioned wire key (docs/API.md,
/// docs/RESILIENCE.md).
///
/// The Monte Carlo campaigns validating the paper's ASYNC claims are
/// embarrassingly parallel across runs. This layer splits a campaign's run
/// indices into contiguous shards, executes any slice in-process on the
/// campaign pool (`apf_sim --campaign N --shard i/k`, one process per
/// slice, on any machine), and merges the per-shard journals back into one
/// file (`apf_sim --merge`).
///
/// ShardSpec (`apf.shard.v1`) describes a whole campaign: scenario
/// (algorithm name, robot count, resolved pattern points, start recipe,
/// scheduler), seeds, the base fault plan (fault::toJson), and the
/// supervisor knobs (watchdog budgets, retry policy). The spec's canonical
/// JSON is the journal config key, so a shard journal of a DIFFERENT
/// campaign refuses loudly instead of merging garbage.
///
/// Determinism contract (tests/shard_test.cpp, tests/shard_cli_test.sh,
/// tools/kill_resume_check.sh):
///  * runShard(spec, algo, 0, spec.runs) is the single-process campaign:
///    apf_sim's --campaign mode is implemented on it, so the sharded and
///    unsharded paths cannot drift apart.
///  * A run's payload depends only on (spec, global run index, attempt
///    salt) — never on which shard or process executed it. Shard journals
///    record GLOBAL run indices.
///  * mergeShardJournals appends entries in ascending global index through
///    the same CampaignJournal code path a single-process campaign uses,
///    so the merged file is byte-identical to an `APF_JOBS=1` journal by
///    construction — including after a shard process was SIGKILLed and
///    resumed.

#include <cstdint>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "sim/algorithm.h"
#include "sim/engine.h"
#include "sim/supervisor.h"

namespace apf::sim {

/// Versioned description of a whole campaign (`apf.shard.v1`). Value
/// semantics; every field is part of `toJson`, so any two specs that would
/// run different experiments get different journal config keys.
struct ShardSpec {
  static constexpr const char* kSchema = "apf.shard.v1";

  std::string algo = "form";     ///< algorithm name (apf_sim --algo spelling)
  std::size_t n = 8;             ///< robots per run
  /// Human label for the pattern ("star", a file path, ...). The points
  /// below are authoritative; the label is bookkeeping for reports.
  std::string patternLabel = "star";
  config::Configuration pattern; ///< resolved target points (wire-embedded)
  /// "random" | "symmetric": regenerated per run from the effective seed.
  /// "points": the fixed `start` configuration below is used for every run.
  std::string startKind = "random";
  config::Configuration start;   ///< only meaningful for startKind "points"
  sched::SchedulerKind sched = sched::SchedulerKind::Async;
  std::uint64_t baseSeed = 1;    ///< run i executes with seed baseSeed + i
  std::uint64_t runs = 1;
  std::uint64_t maxEvents = 1000000;
  double delta = 0.05;
  bool multiplicity = false;
  bool commonChirality = false;
  /// Crash-stop faults: f victims re-drawn per run inside `crashHorizon`
  /// events (fault::planWithRandomCrashes), matching apf_sim --crash.
  int crashF = 0;
  std::uint64_t crashHorizon = 2000;
  /// Base fault plan: the sensor/compute knobs plus the fault-stream seed.
  /// Per-run plans re-draw crash victims from the effective per-run seed
  /// unless `faultSeedSet` pins `fault.seed` for every run.
  fault::FaultPlan fault;
  bool faultSeedSet = false;
  // Supervisor knobs, per run.
  std::uint64_t watchdogEvents = 0;
  std::uint64_t watchdogMs = 0;
  int retries = 2;
};

/// Canonical single-line JSON encoding (schema field first).
std::string toJson(const ShardSpec& spec);

/// The journal config key: the spec's canonical JSON itself. Any spec
/// difference — including a future schema bump — makes shard journals
/// refuse to merge (CampaignJournal's config-mismatch check).
std::string shardConfigKey(const ShardSpec& spec);

/// Empty string when the spec is executable; otherwise a human-readable
/// reason (pattern/robot count mismatch, bad start, crashF >= n, invalid
/// plan, ...).
std::string validateShardSpec(const ShardSpec& spec);

/// Empty string when `kind` names a generated start for n robots —
/// exactly "random", or "symmetric" with an even n >= 4 — otherwise a
/// human-readable reason.
std::string validateStartKind(const std::string& kind, std::size_t n);

/// The generated start of the run seeded `seed`, drawn from
/// config::Rng(seed + 7): "random" scatters n robots, "symmetric" places
/// two rings of n/2 (rho = n/2). Throws std::invalid_argument on a kind
/// validateStartKind rejects. apf_sim, every campaign run and
/// apf_estimate's trials all build their start here.
config::Configuration generateStart(const std::string& kind, std::size_t n,
                                    std::uint64_t seed);

/// Contiguous, balanced partition of [0, runs): shard `index` of `count`
/// owns [lo, hi). Shards differ in size by at most one run and cover the
/// range exactly.
struct ShardRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t size() const { return hi - lo; }
};
ShardRange shardRange(std::uint64_t runs, unsigned index, unsigned count);

/// The per-run supervisor policy encoded in the spec.
SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder = nullptr);

/// Engine options of the campaign run seeded `seed` (baseSeed + run index,
/// XOR the retry salt), without a watchdog. Its fault plan is the spec's
/// sensor/compute knobs plus crashF victims re-drawn by
/// fault::planWithRandomCrashes from the pinned fault seed, or else from
/// `seed`, which is also the fault-stream seed then. apf_sim's single run
/// is run 0 of its spec and takes its options from here too.
EngineOptions scenarioOptions(const ShardSpec& spec, std::uint64_t seed);

/// Executes ONE run of the campaign: global index `runIndex`, retry salt
/// folded in via `att`. Deterministic given (spec, runIndex, att.seedSalt)
/// — the payload carries no wall-clock or process-identity fields, which
/// is what makes sharded output byte-comparable. This is the exact worker
/// apf_sim's --campaign mode always ran; see the .cpp for the
/// field-by-field contract.
std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att);

/// Runs the spec's global index range [lo, hi) as one superviseCampaign
/// call with runScenarioPayload as the worker: journaling (when `journal`
/// is non-null) and reporting use GLOBAL run indices, and already-journaled
/// runs replay without re-execution. When `payloads` is non-null it is
/// grown to spec.runs slots; completed and replayed payloads land at their
/// global index. jobs follows campaignJobs() resolution. The whole campaign
/// is runShard(spec, algo, 0, spec.runs, ...).
SupervisorReport runShard(const ShardSpec& spec, const Algorithm& algo,
                          std::uint64_t lo, std::uint64_t hi,
                          CampaignJournal* journal, obs::Recorder* recorder,
                          int jobs = 0, CampaignStats* stats = nullptr,
                          std::vector<std::string>* payloads = nullptr);

/// Merges shard journals into `mergedPath`, appending entries in ascending
/// global run index through the same CampaignJournal append path a
/// single-process campaign uses — the merged file is byte-identical to an
/// uninterrupted `APF_JOBS=1` journal of the same spec. Every shard
/// journal must exist and carry this spec's config key (throws otherwise:
/// a mistyped path must not silently drop a shard's runs). Returns the
/// number of merged entries (quarantined runs have none).
std::size_t mergeShardJournals(const ShardSpec& spec,
                               const std::vector<std::string>& shardJournals,
                               const std::string& mergedPath);

}  // namespace apf::sim

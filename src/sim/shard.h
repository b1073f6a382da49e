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
/// ShardSpec (`apf.shard.v1`) describes a whole campaign: a Scenario
/// (sim/scenario.h) plus the supervisor knobs (watchdog budgets, retry
/// policy). The spec's canonical JSON is the journal config key, so a
/// shard journal of a DIFFERENT campaign refuses loudly instead of merging
/// garbage.
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

#include "sim/algorithm.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/supervisor.h"

namespace apf::sim {

/// A whole campaign (`apf.shard.v1`): the scenario plus the per-run
/// supervisor policy. Every field is part of `toJson`, so specs of
/// different experiments get different journal config keys.
struct ShardSpec : Scenario {
  static constexpr const char* kSchema = "apf.shard.v1";

  std::uint64_t watchdogEvents = 0;
  std::uint64_t watchdogMs = 0;
  int retries = 2;
};

/// Canonical single-line JSON encoding: the schema field, the scenario's
/// fields (writeScenario), then the supervisor knobs.
std::string toJson(const ShardSpec& spec);

/// The journal config key: the spec's canonical JSON itself. Any spec
/// difference — including a future schema bump — makes shard journals
/// refuse to merge (CampaignJournal's config-mismatch check).
std::string shardConfigKey(const ShardSpec& spec);

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

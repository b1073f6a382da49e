#pragma once

/// \file campaign_spec.h
/// A supervised campaign's description behind a versioned wire key
/// (docs/API.md, docs/RESILIENCE.md).
///
/// CampaignSpec (`apf.shard.v1`) describes a whole campaign: a Scenario
/// (sim/scenario.h) plus the supervisor knobs (watchdog budgets, retry
/// policy). The spec's canonical JSON is the journal config key, so
/// resuming a journal of a DIFFERENT campaign refuses loudly instead of
/// merging garbage. The schema name and its `"shard"` field predate the
/// type's name; both stay as they are so journals written by earlier
/// builds keep resuming.
///
/// Determinism contract (tests/campaign_spec_test.cpp,
/// tests/campaign_cli_test.sh, tools/kill_resume_check.sh): a run's payload
/// depends only on (spec, run index, attempt salt), never on which thread
/// or process executed it, so a resumed campaign's journal and output are
/// byte-identical to an uninterrupted one's.

#include <cstdint>
#include <string>

#include "sim/algorithm.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/supervisor.h"

namespace apf::sim {

/// A whole campaign (`apf.shard.v1`): the scenario plus the per-run
/// supervisor policy. Every field is part of `toJson`, so specs of
/// different experiments get different journal config keys.
struct CampaignSpec : Scenario {
  static constexpr const char* kSchema = "apf.shard.v1";

  std::uint64_t watchdogEvents = 0;
  std::uint64_t watchdogMs = 0;
  int retries = 2;
};

/// Canonical single-line JSON encoding: the schema field, the scenario's
/// fields (writeScenario), then the supervisor knobs.
std::string toJson(const CampaignSpec& spec);

/// The journal config key: the spec's canonical JSON itself. Any spec
/// difference — including a future schema bump — makes a journal refuse
/// to resume (CampaignJournal's config-mismatch check).
std::string shardConfigKey(const CampaignSpec& spec);

/// The per-run supervisor policy encoded in the spec.
SupervisorOptions shardSupervisorOptions(const CampaignSpec& spec,
                                         obs::Recorder* recorder = nullptr);

/// Executes ONE run of the campaign: index `runIndex`, retry salt folded
/// in via `att`. Deterministic given (spec, runIndex, att.seedSalt) — the
/// payload carries no wall-clock or process-identity fields, which is what
/// makes campaign output byte-comparable. This is apf_sim's --campaign
/// worker; see the .cpp for the field-by-field contract.
std::string runScenarioPayload(const CampaignSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att);

}  // namespace apf::sim

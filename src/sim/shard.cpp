#include "sim/shard.h"

#include <filesystem>
#include <map>
#include <stdexcept>

#include "obs/json.h"
#include "sim/engine.h"

namespace fs = std::filesystem;

namespace apf::sim {

// ----------------------------------------------------------------- wire --

std::string toJson(const ShardSpec& spec) {
  obs::JsonObjectWriter w;
  w.field("shard", ShardSpec::kSchema);
  writeScenario(w, spec);
  w.field("watchdog_events", spec.watchdogEvents);
  w.field("watchdog_ms", spec.watchdogMs);
  w.field("retries", spec.retries);
  return w.str();
}

std::string shardConfigKey(const ShardSpec& spec) { return toJson(spec); }

ShardRange shardRange(std::uint64_t runs, unsigned index, unsigned count) {
  if (count == 0 || index >= count) {
    throw std::runtime_error("shard: index " + std::to_string(index) +
                             " out of range for " + std::to_string(count) +
                             " shards");
  }
  // i*runs/count is monotone in i and hits 0 and runs at the ends, so the
  // slices are contiguous, cover [0, runs) exactly, and differ in size by
  // at most one.
  ShardRange r;
  r.lo = runs * index / count;
  r.hi = runs * (index + 1) / count;
  return r;
}

// ------------------------------------------------------------ execution --

SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder) {
  SupervisorOptions opts;
  opts.cycleBudget = spec.watchdogEvents;
  opts.wallBudgetNanos = spec.watchdogMs * 1'000'000ull;
  opts.maxRetries = spec.retries;
  opts.recorder = recorder;
  return opts;
}

std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att) {
  // Field-by-field this is the campaign worker apf_sim always ran; it
  // lives here so every slice of a campaign executes the same code.
  // Retry salts XOR into the effective seed (0 for attempts 0/1 — the
  // same-seed determinism proof); crash victims/timings are re-drawn
  // per run so the campaign explores many crash schedules. The payload is
  // a flat JSON line with only deterministic fields, so campaign outputs
  // diff bit-identical across processes and machines.
  const std::uint64_t eff = (spec.baseSeed + runIndex) ^ att.seedSalt;
  EngineOptions eopts = engineOptions(spec, eff);
  eopts.watchdog = att.watchdog;
  Engine eng(startFor(spec, eff), spec.pattern, algo, eopts);
  const RunResult res = eng.run();
  obs::JsonObjectWriter w;
  w.field("seed", eff);
  w.field("outcome", outcomeName(res.outcome));
  w.field("success", res.success);
  w.field("terminated", res.terminated);
  w.field("cycles", res.metrics.cycles);
  w.field("events", res.metrics.events);
  w.field("bits", res.metrics.randomBits);
  w.field("distance", res.metrics.distance);
  return w.str();
}

SupervisorReport runShard(const ShardSpec& spec, const Algorithm& algo,
                          std::uint64_t lo, std::uint64_t hi,
                          CampaignJournal* journal, obs::Recorder* recorder,
                          int jobs, CampaignStats* stats,
                          std::vector<std::string>* payloads) {
  if (lo > hi || hi > spec.runs) {
    throw std::runtime_error("shard: range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + ") exceeds " +
                             std::to_string(spec.runs) + " runs");
  }
  if (payloads != nullptr && payloads->size() < spec.runs) {
    payloads->resize(spec.runs);
  }
  return superviseCampaign(
      lo, hi,
      [&](std::size_t index, const Attempt& att) {
        return runScenarioPayload(spec, algo, index, att);
      },
      [&](std::size_t index, std::string&& payload) {
        if (payloads != nullptr) (*payloads)[index] = std::move(payload);
      },
      shardSupervisorOptions(spec, recorder), journal, jobs, stats);
}

std::size_t mergeShardJournals(const ShardSpec& spec,
                               const std::vector<std::string>& shardJournals,
                               const std::string& mergedPath) {
  const std::string key = shardConfigKey(spec);
  std::map<std::uint64_t, std::string> entries;
  for (const std::string& path : shardJournals) {
    // A missing path is an error, not an empty shard: with user-supplied
    // paths, a typo would otherwise drop that shard's runs silently and
    // the resume after the merge would quietly re-execute them.
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      throw std::runtime_error("shard: journal to merge does not exist: " +
                               path);
    }
    // Opening with resume=true reuses the torn-tail recovery and the
    // config-key check: a shard journal of a DIFFERENT spec throws here
    // instead of contaminating the merge.
    CampaignJournal j(path, key, /*resume=*/true);
    for (std::uint64_t i = 0; i < spec.runs; ++i) {
      if (const std::string* p = j.payload(static_cast<std::size_t>(i))) {
        entries[i] = *p;
      }
    }
  }
  // A fresh journal + ascending-index appends is exactly what a
  // single-process APF_JOBS=1 campaign writes (its merge callbacks fire in
  // index order), so the merged file is byte-identical by construction.
  CampaignJournal merged(mergedPath, key, /*resume=*/false);
  for (const auto& [i, payload] : entries) {
    merged.append(static_cast<std::size_t>(i), payload);
  }
  return entries.size();
}

}  // namespace apf::sim

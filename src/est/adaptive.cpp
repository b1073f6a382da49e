#include "est/adaptive.h"

#include <algorithm>
#include <stdexcept>

#include "sched/seed.h"

namespace apf::est {

std::string Sample::toJson() const {
  obs::JsonObjectWriter w;
  w.field("success", success);
  w.field("cycles", cycles);
  w.field("events", events);
  w.field("bits", bits);
  return w.str();
}

Sample Sample::fromJson(std::string_view text) {
  const auto obj = obs::parseFlatObject(text);
  if (!obj) {
    throw std::runtime_error("est: malformed Sample JSON: " +
                             std::string(text));
  }
  auto field = [&](const char* key) -> const obs::JsonValue& {
    const auto it = obj->find(key);
    if (it == obj->end()) {
      throw std::runtime_error(std::string("est: Sample missing field '") +
                               key + "'");
    }
    return it->second;
  };
  Sample s;
  s.success = field("success").asBool();
  s.cycles = field("cycles").asNumber();
  s.events = field("events").asNumber();
  s.bits = static_cast<std::uint64_t>(field("bits").asNumber());
  return s;
}

namespace {

/// Serializes one summary + its interval fields as a nested JSON object.
std::string momentsJson(const MomentSummary& s, double confidence) {
  const Interval eb = empiricalBernstein(s, confidence);
  obs::JsonObjectWriter w;
  w.field("count", s.count);
  w.field("mean", s.mean);
  w.field("m2", s.m2);
  w.field("min", s.min);
  w.field("max", s.max);
  w.field("variance", s.variance());
  w.field("eb_lo", eb.lo);
  w.field("eb_hi", eb.hi);
  return w.str();
}

}  // namespace

std::string ArmEstimate::toJson() const {
  const Interval w = wilson(success, confidence);
  const Interval cp = clopperPearson(success, confidence);
  obs::JsonObjectWriter top;
  top.field("label", label);
  top.field("base_seed", baseSeed);
  top.field("samples", samples);
  top.field("batches", batches);
  top.field("max_samples", maxSamples);
  top.field("confidence", confidence);
  top.field("stop_reason", stopReasonName(stopReason));
  top.field("converged", converged);
  {
    obs::JsonObjectWriter sw;
    sw.field("trials", success.trials);
    sw.field("successes", success.successes);
    sw.field("rate", success.rate());
    sw.field("wilson_lo", w.lo);
    sw.field("wilson_hi", w.hi);
    sw.field("cp_lo", cp.lo);
    sw.field("cp_hi", cp.hi);
    top.rawField("success", sw.str());
  }
  top.rawField("cycles", momentsJson(cycles, confidence));
  top.rawField("events", momentsJson(events, confidence));
  top.rawField("bits", momentsJson(bits, confidence));
  return top.str();
}

void appendManifest(const ArmEstimate& arm, obs::Manifest& manifest,
                    const std::string& prefix) {
  const Interval w = wilson(arm.success, arm.confidence);
  const Interval ebBits = empiricalBernstein(arm.bits, arm.confidence);
  manifest.set(prefix + "label", arm.label);
  manifest.set(prefix + "base_seed", arm.baseSeed);
  manifest.set(prefix + "samples", arm.samples);
  manifest.set(prefix + "batches", arm.batches);
  manifest.set(prefix + "max_samples", arm.maxSamples);
  manifest.set(prefix + "confidence", arm.confidence);
  manifest.set(prefix + "stop_reason", stopReasonName(arm.stopReason));
  manifest.set(prefix + "converged", arm.converged);
  manifest.set(prefix + "success_rate", arm.success.rate());
  manifest.set(prefix + "wilson_lo", w.lo);
  manifest.set(prefix + "wilson_hi", w.hi);
  manifest.set(prefix + "cycles_mean", arm.cycles.mean);
  manifest.set(prefix + "bits_mean", arm.bits.mean);
  manifest.set(prefix + "bits_eb_lo", ebBits.lo);
  manifest.set(prefix + "bits_eb_hi", ebBits.hi);
}

ArmEstimate runAdaptive(const std::string& label, const Trial& trial,
                        const AdaptiveOptions& opts) {
  opts.stop.validate();
  if (!trial) throw std::invalid_argument("est: runAdaptive needs a trial");

  ArmEstimate arm;
  arm.label = label;
  arm.baseSeed = opts.baseSeed;
  arm.maxSamples = opts.stop.maxSamples;
  arm.confidence = opts.stop.confidence;

  // Deterministic event stream: indexes count from 0 on the calling
  // thread, wallNanos stays 0 (an adaptive run's telemetry must not embed
  // clocks — the CI smoke byte-compares whole output trees).
  std::uint64_t eventIndex = 0;
  auto emit = [&](obs::EventKind kind, std::uint64_t batchIndex,
                  std::uint64_t firstSample, std::uint64_t amount) {
    if (opts.recorder == nullptr) return;
    obs::Event ev;
    ev.kind = kind;
    ev.index = eventIndex++;
    ev.robot = static_cast<std::int64_t>(batchIndex);
    ev.schedEvent = firstSample;
    ev.bitsUsed = amount;
    opts.recorder->record(ev);
  };

  std::uint64_t scheduled = 0;  // == global index of the next batch start
  for (;;) {
    const std::uint64_t batchSize =
        std::min(opts.stop.batchSize, opts.stop.maxSamples - scheduled);
    emit(obs::EventKind::BatchScheduled, arm.batches, scheduled, batchSize);

    // Per-batch summaries, fed in strict global-index order from each
    // sample's payload, whether it ran now or replays from the journal.
    BernoulliSummary bSuccess;
    MomentSummary bCycles, bEvents, bBits;
    sim::SupervisorOptions sopts;
    sopts.maxRetries = 0;
    const sim::SupervisorReport report = sim::superviseCampaign(
        scheduled, scheduled + batchSize,
        [&](std::size_t gi, const sim::Attempt&) {
          return trial(sched::sampleSeed(opts.baseSeed, gi), gi).toJson();
        },
        [&](std::size_t, std::string&& payload) {
          const Sample s = Sample::fromJson(payload);
          bSuccess.add(s.success);
          bCycles.add(s.cycles);
          bEvents.add(s.events);
          bBits.add(static_cast<double>(s.bits));
        },
        sopts, opts.journal, opts.jobs);
    if (!report.quarantine.empty()) {
      // With no retries a quarantined sample is a trial that threw.
      throw std::runtime_error(
          report.quarantine.front().attempts.front().message);
    }

    arm.success.merge(bSuccess);
    arm.cycles.merge(bCycles);
    arm.events.merge(bEvents);
    arm.bits.merge(bBits);
    arm.batches += 1;
    arm.samples += batchSize;
    scheduled += batchSize;

    const auto stop = evaluateStop(opts.stop, arm.success, arm.samples);
    if (stop) {
      arm.stopReason = *stop;
      arm.converged = *stop != StopReason::MaxSamples;
      if (arm.converged) {
        emit(obs::EventKind::EstimateConverged, arm.batches, arm.samples,
             static_cast<std::uint64_t>(arm.stopReason));
      }
      return arm;
    }
  }
}

}  // namespace apf::est

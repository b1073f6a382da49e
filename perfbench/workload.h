#pragma once

/// \file workload.h
/// Workloads of the time-to-goal benchmark: a fixed corpus of runs per
/// workload, presented in a world frame chosen by the seed, executed in
/// passes through sim::runCampaign and verified run by run.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "sim/algorithm.h"
#include "sim/campaign.h"

namespace perfbench {

using apf::config::Configuration;

/// What a run must reach to count as a success.
enum class Goal {
  Election,   ///< terminated with a selected robot (psi_RSB alone)
  Formation,  ///< pattern formed (full algorithm)
};

/// How the corpus' start configurations are drawn.
enum class StartKind {
  Symmetric,  ///< two concentric n/2-gons: rho(P) = n/2
  Random,     ///< uniform in a disc: rho(P) = 1
  Alternate,  ///< even runs random, odd runs symmetric
};

struct WorkloadSpec {
  const char* name;
  Goal goal;
  StartKind starts;
  std::size_t n;
  /// Runs per pass (the corpus size).
  int runsPerPass;
  /// True: passes run on the campaign pool with one job per hardware
  /// thread; false: one run at a time.
  bool pooled;
  /// Corpus seed used unless --corpus-seed overrides it.
  std::uint64_t defaultCorpusSeed;
  /// A corpus seed kept out of tuning, for checking a claim on unseen runs.
  std::uint64_t heldOutCorpusSeed;
};

/// All workloads. BENCHMARK.json lists all but election_sym48, which is
/// run by hand (perfbench/README.md says why).
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* findWorkload(const std::string& name);

/// One run of the corpus: inputs already in the seed's world frame.
struct Instance {
  Configuration start;
  Configuration pattern;
  std::uint64_t engineSeed = 0;
  bool symmetricStart = false;
};

/// Builds the corpus for `corpusSeed`, presented in the world frame drawn
/// from `frameSeed` (a rotation and translation of every start, a rotation
/// of every pattern). Throws std::runtime_error when an input is not what
/// the workload claims (wrong size, a multiplicity point, or the wrong
/// rotational symmetricity).
std::vector<Instance> makeCorpus(const WorkloadSpec& spec,
                                 std::uint64_t corpusSeed,
                                 std::uint64_t frameSeed);

/// A Compute the traced run kept for replay: the robot's snapshot and the
/// phase tag its Compute returned.
struct ComputeSample {
  apf::sim::Snapshot snap;
  int phaseTag = 0;
  std::int64_t run = 0;
};

/// What the traced wrapper saw during one run.
struct ComputeLog {
  std::uint64_t calls = 0;
  std::uint64_t moves = 0;
  std::vector<std::uint64_t> phaseCalls;  ///< indexed by tag < kPhaseTags
  std::vector<ComputeSample> samples;     ///< reservoir of Computes
};

struct RunOutcome {
  bool goal = false;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t randomBits = 0;
  std::uint64_t secHits = 0;
  std::uint64_t secMisses = 0;
  std::uint64_t weberHits = 0;
  std::uint64_t weberMisses = 0;
  /// Engine construction to the goal, less the reference kernel's time.
  double runSeconds = 0.0;
  /// Reference-kernel calls during the run and their total wall seconds
  /// (referenced passes only; see reference.h).
  std::uint32_t refSamples = 0;
  double refSeconds = 0.0;
  /// Worker claim to the constructed Engine (input copies + construction).
  double setupSeconds = 0.0;
  /// Filled by traced passes only.
  std::optional<ComputeLog> log;
};

struct PassResult {
  std::vector<RunOutcome> runs;
  double wallSeconds = 0.0;
  apf::sim::CampaignStats stats;
};

struct PassOptions {
  int jobs = 1;
  /// Wrap the algorithm and open benchmark spans (needs an installed
  /// obs::SpanCollector to record anything).
  bool traced = false;
  /// Time the reference kernel on the worker thread right before each run
  /// and then at most every kReferenceIntervalNanos of the run's wall
  /// time.
  bool referenced = false;
  /// Reservoir size per run for replay samples (traced passes only).
  std::size_t samplesPerRun = 0;
  /// Pass number; run indices in spans are pass * corpus size + item.
  int pass = 0;
};

/// Runs every instance once through sim::runCampaign and verifies each
/// run's goal through public functions.
PassResult runPass(const WorkloadSpec& spec,
                   const std::vector<Instance>& corpus,
                   const PassOptions& opts);

/// Phase tags the two algorithms under test can return: core::kStay through
/// core::kDpfRotate.
inline constexpr int kPhaseTags = 14;

/// Wall time between reference-kernel calls in a referenced run: short
/// enough to follow the host's drift, long enough to cost about 2%.
inline constexpr std::uint64_t kReferenceIntervalNanos = 250'000'000;

/// Scheduler-event cap of every run; a run reaching it misses its goal.
inline constexpr std::uint64_t kMaxEvents = 1'000'000;

}  // namespace perfbench

/// Work gate (docs/PERFORMANCE.md, "Work gate"): exact work counts of three
/// fixed runs — scheduler events, LCM cycles, and the calls and candidates
/// of every configuration kernel (config::GeomCacheCounters). The counts
/// depend only on the robots' decisions and on the kernels' algorithms: not
/// on the machine, the build type, the sanitizer or the thread, and not on
/// whether the pattern cache is warm (PatternInfo::get keeps its own build
/// out of the counters). So a kernel that examines more candidates, a cache
/// that stops hitting, or a run that takes more events fails here exactly,
/// with no noise threshold.
///
/// On a mismatch each test prints its measured pin in the form of the pins
/// below. A change that means to alter the work pastes it in and says why.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "config/configuration.h"
#include "core/form_pattern.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "io/patterns.h"
#include "sim/scenario.h"

namespace apf::sim {
namespace {

using config::GeomCacheCounters;

struct Work {
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  GeomCacheCounters kernels;
};

struct Field {
  const char* name;
  std::uint64_t GeomCacheCounters::*member;
};

constexpr Field kFields[] = {
    {"secHits", &GeomCacheCounters::secHits},
    {"secMisses", &GeomCacheCounters::secMisses},
    {"weberHits", &GeomCacheCounters::weberHits},
    {"weberMisses", &GeomCacheCounters::weberMisses},
    {"polarHits", &GeomCacheCounters::polarHits},
    {"polarMisses", &GeomCacheCounters::polarMisses},
    {"axesCalls", &GeomCacheCounters::axesCalls},
    {"axesCandidates", &GeomCacheCounters::axesCandidates},
    {"reflectionsTried", &GeomCacheCounters::reflectionsTried},
    {"symmetricityCalls", &GeomCacheCounters::symmetricityCalls},
    {"rotationsTried", &GeomCacheCounters::rotationsTried},
    {"regularCalls", &GeomCacheCounters::regularCalls},
    {"regularPrefixes", &GeomCacheCounters::regularPrefixes},
    {"shiftedCalls", &GeomCacheCounters::shiftedCalls},
    {"shiftVerifies", &GeomCacheCounters::shiftVerifies},
    {"shiftCertified", &GeomCacheCounters::shiftCertified},
    {"viewsBuilt", &GeomCacheCounters::viewsBuilt},
    {"similarityCalls", &GeomCacheCounters::similarityCalls},
    {"similarityTransforms", &GeomCacheCounters::similarityTransforms},
    {"gridFits", &GeomCacheCounters::gridFits},
};

/// Runs run 0 of `sc` on this thread into `result` and returns its work.
Work measure(const Scenario& sc, const Algorithm& algo, RunResult& result) {
  const GeomCacheCounters before = config::geomCacheCounters();
  Engine eng(startFor(sc, sc.baseSeed), sc.pattern, algo,
             engineOptions(sc, sc.baseSeed));
  result = eng.run();
  const GeomCacheCounters after = config::geomCacheCounters();
  Work w;
  w.events = result.metrics.events;
  w.cycles = result.metrics.cycles;
  for (const Field& f : kFields) {
    w.kernels.*f.member = after.*f.member - before.*f.member;
  }
  return w;
}

/// `w` in the form of the pins below, one field per line.
std::string pinText(const Work& w) {
  std::string s = "    {.events = " + std::to_string(w.events) +
                  ",\n     .cycles = " + std::to_string(w.cycles) +
                  ",\n     .kernels = {";
  const char* sep = "";
  for (const Field& f : kFields) {
    s.append(sep).append(".").append(f.name).append(" = ");
    s.append(std::to_string(w.kernels.*f.member));
    sep = ",\n                 ";
  }
  return s + "}}";
}

/// gtest prints a per-line diff of the two texts on a mismatch; the
/// measured text is printed whole so it can be pasted over the pin.
void expectPinned(const Work& measured, const Work& pin) {
  const std::string text = pinText(measured);
  EXPECT_EQ(text, pinText(pin));
  if (text != pinText(pin)) std::printf("measured pin:\n%s\n", text.c_str());
}

std::uint64_t activations(const RunResult& r, int tag) {
  const auto it = r.metrics.phaseActivations.find(tag);
  return it == r.metrics.phaseActivations.end() ? 0 : it->second;
}

// polarHits/polarMisses and viewsBuilt were re-pinned, with every decision
// and every other count unchanged, when (1) verifyShift's pre-rejection
// began to read P's polar table instead of building P' and a table for it
// (fewer misses, more hits), and (2) Analysis began to share one
// SEC-centered views table between regularSetOf and viewsP() (n fewer
// views per Compute that reaches psi_RSB's asymmetric case).
//
// secHits was re-pinned, with every decision and every other count
// unchanged, when PatternInfo began to be keyed by the raw pattern's exact
// bits: Analysis no longer normalizes F in every Compute, so the sec() call
// of that normalization (a hit on the snapshot's pattern) is gone.
//
// shiftVerifies and polarHits were re-pinned, and shiftCertified added,
// with every decision and every other count unchanged, when
// shiftedRegularSetOf gained its certificate pass: a call whose candidates
// are all proven to fail verifyShift's pre-rejection returns without
// verifying any (31 of 32 calls in kForm16, 95 of 242 in kRsb16, all 57 in
// kForm64), and its pre-rejection checks read fewer polar tables.

// The full algorithm at n = 16 from a random start, run to the goal.
constexpr Work kForm16 =
    {.events = 2637,
     .cycles = 1187,
     .kernels = {.secHits = 1698,
                 .secMisses = 926,
                 .weberHits = 32,
                 .weberMisses = 33,
                 .polarHits = 4340,
                 .polarMisses = 980,
                 .axesCalls = 64,
                 .axesCandidates = 14400,
                 .reflectionsTried = 97,
                 .symmetricityCalls = 33,
                 .rotationsTried = 99,
                 .regularCalls = 33,
                 .regularPrefixes = 396,
                 .shiftedCalls = 32,
                 .shiftVerifies = 15,
                 .shiftCertified = 31,
                 .viewsBuilt = 528,
                 .similarityCalls = 123,
                 .similarityTransforms = 650,
                 .gridFits = 0}};

// psi_RSB alone at n = 16 from a symmetric start (two 8-gons): the found
// path of the shifted-set and election predicates.
// polarHits/polarMisses and viewsBuilt re-pinned; see the note above kForm16.
constexpr Work kRsb16 =
    {.events = 846,
     .cycles = 365,
     .kernels = {.secHits = 562,
                 .secMisses = 578,
                 .weberHits = 96,
                 .weberMisses = 441,
                 .polarHits = 5182,
                 .polarMisses = 2307,
                 .axesCalls = 415,
                 .axesCandidates = 93375,
                 .reflectionsTried = 18247,
                 .symmetricityCalls = 83,
                 .rotationsTried = 277,
                 .regularCalls = 295,
                 .regularPrefixes = 819,
                 .shiftedCalls = 242,
                 .shiftVerifies = 1552,
                 .shiftCertified = 95,
                 .viewsBuilt = 1104,
                 .similarityCalls = 1,
                 .similarityTransforms = 0,
                 .gridFits = 1494}};

// The full algorithm at n = 64 from a random start, capped at 20,000
// events: psi_RSB's asymmetric (reject) path, then psi_DPF.
// polarHits/polarMisses and viewsBuilt re-pinned; see the note above kForm16.
constexpr Work kForm64 =
    {.events = 20000,
     .cycles = 9909,
     .kernels = {.secHits = 11799,
                 .secMisses = 5969,
                 .weberHits = 57,
                 .weberMisses = 57,
                 .polarHits = 32941,
                 .polarMisses = 6127,
                 .axesCalls = 57,
                 .axesCandidates = 226233,
                 .reflectionsTried = 114,
                 .symmetricityCalls = 57,
                 .rotationsTried = 171,
                 .regularCalls = 57,
                 .regularPrefixes = 3420,
                 .shiftedCalls = 57,
                 .shiftVerifies = 0,
                 .shiftCertified = 57,
                 .viewsBuilt = 3648,
                 .similarityCalls = 1,
                 .similarityTransforms = 0,
                 .gridFits = 0}};

TEST(WorkGateTest, Form16ToGoal) {
  core::FormPatternAlgorithm form;
  Scenario sc;
  sc.pattern = io::randomPatternByName(16, 1002);
  sc.baseSeed = 2;
  RunResult r;
  const Work w = measure(sc, form, r);
  EXPECT_TRUE(r.success);
  expectPinned(w, kForm16);
  // Again with this thread's pattern cache warm: the same counts.
  expectPinned(measure(sc, form, r), w);
}

TEST(WorkGateTest, Rsb16SymmetricStart) {
  core::RsbOnlyAlgorithm rsb;
  Scenario sc;
  sc.algo = "rsb";
  sc.pattern = io::starPattern(16);
  sc.startKind = "symmetric";
  sc.baseSeed = 2;
  RunResult r;
  const Work w = measure(sc, rsb, r);
  EXPECT_TRUE(r.terminated);
  EXPECT_GT(activations(r, core::kRsbShifted), 0u);
  EXPECT_GT(activations(r, core::kRsbElection), 0u);
  expectPinned(w, kRsb16);
}

TEST(WorkGateTest, Form64Capped) {
  core::FormPatternAlgorithm form;
  Scenario sc;
  sc.pattern = io::randomPatternByName(64, 1001);
  sc.baseSeed = 1;
  sc.maxEvents = 20000;
  RunResult r;
  const Work w = measure(sc, form, r);
  EXPECT_GT(activations(r, core::kRsbAsymmetric), 0u);
  EXPECT_GT(activations(r, core::kDpfClean), 0u);
  expectPinned(w, kForm64);
}

}  // namespace
}  // namespace apf::sim

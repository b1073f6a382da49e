#pragma once

/// \file algo_select.h
/// The one --algo-name-to-instance map shared by apf_sim and apf_estimate.
/// Lives in tools/ (not src/sim) on purpose: core and baseline depend on
/// sim's Algorithm interface, not vice versa, so the sim library can never
/// name a concrete algorithm — binaries do, and they must all agree on the
/// spelling (the `algo` field of an apf.shard.v1 journal key is this
/// spelling).

#include <memory>
#include <string>

#include "baseline/det_election.h"
#include "baseline/yy.h"
#include "core/form_pattern.h"
#include "core/rsb.h"
#include "core/scattering.h"
#include "sim/algorithm.h"

namespace apf::cli {

/// Maps an --algo (or wire-schema algo field) spelling to an instance;
/// sets `multiplicity` when the algorithm requires detection. nullptr =
/// unknown name.
inline std::unique_ptr<sim::Algorithm> makeAlgorithm(const std::string& name,
                                                     bool& multiplicity) {
  if (name == "form") return std::make_unique<core::FormPatternAlgorithm>();
  if (name == "rsb") return std::make_unique<core::RsbOnlyAlgorithm>();
  if (name == "yy") return std::make_unique<baseline::YYAlgorithm>();
  if (name == "det") {
    return std::make_unique<baseline::DeterministicElection>();
  }
  if (name == "scatter-form") {
    multiplicity = true;
    return std::make_unique<core::ScatterThenForm>();
  }
  return nullptr;
}

/// Names accepted by makeAlgorithm, for --help strings.
inline const char* algorithmNames() { return "form|rsb|yy|det|scatter-form"; }

}  // namespace apf::cli

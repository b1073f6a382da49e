#include "baseline/det_formation.h"

#include "config/similarity.h"
#include "core/analysis.h"
#include "core/dpf.h"
#include "core/moves.h"
#include "core/phases.h"

namespace apf::baseline {

using sim::Action;

Action DeterministicFormation::compute(const sim::Snapshot& snap,
                                       sched::RandomSource& /*rng*/) const {
  core::Analysis a(snap);
  if (!a.ok()) return Action::stay(core::kStay);
  if (config::similar(a.P(), a.F(), geom::Tol{1e-6, 1e-6})) {
    return Action::stay(core::kTerminal);
  }

  // Final move (same as the main algorithm's lines 3-4).
  const auto maxP = a.maxViewP();
  if (maxP.size() == 1) {
    const std::size_t r = maxP.front();
    for (std::size_t f : a.maxViewNonHoldersF()) {
      const auto t = config::findSimilarity(
          a.F().without(f), a.P().without(r), true, geom::Tol{1e-6, 1e-6});
      if (!t) continue;
      if (a.self() != r) return Action::stay(core::kFinalMove);
      const geom::Vec2 dest = t->apply(a.F()[f]);
      if (geom::normLeq(dest - a.P()[r], 1e-8)) {
        return Action::stay(core::kFinalMove);
      }
      Action act{core::linePath(a.P()[r], dest), core::kFinalMove};
      act.path = act.path.transformed(a.denormalize());
      return act;
    }
  }

  Action act = Action::stay(core::kBaseline);
  if (!a.selectedRobot()) {
    // Deterministic election: only a UNIQUE max-view robot may descend.
    // Symmetric configurations stall here forever — the impossibility.
    if (maxP.size() != 1 || a.self() != maxP.front()) {
      return Action::stay(core::kBaseline);
    }
    const std::size_t r = maxP.front();
    double minOther = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < a.P().size(); ++j) {
      if (j != r) minOther = std::min(minOther, a.P()[j].norm());
    }
    const double target = 0.45 * std::min(a.lF(), minOther);
    if (geom::normLeq(a.P()[r], target + 1e-9)) {
      return Action::stay(core::kBaseline);
    }
    act = Action{core::radialPath(geom::Vec2{}, a.P()[r], target),
                 core::kBaseline};
  } else {
    // Selected robot exists: the deterministic psi_DPF takes over (it is
    // the paper's own phase, independently useful in the deterministic
    // setting — "as the deterministic phase does not use chirality, it may
    // be of independent interest").
    act = core::dpfCompute(a);
  }
  if (act.isMove()) act.path = act.path.transformed(a.denormalize());
  return act;
}

}  // namespace apf::baseline

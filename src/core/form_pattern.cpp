#include "core/form_pattern.h"

#include "config/similarity.h"
#include "core/analysis.h"
#include "core/dpf.h"
#include "core/moves.h"
#include "core/multiplicity.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "core/scattering.h"

namespace apf::core {
namespace {

using sim::Action;

/// Tolerance for "has the pattern been reached" matching: robots stop
/// rotating within 1e-7 of their target angles (to avoid chasing
/// per-snapshot normalization noise), so shape matching must absorb that.
/// Detection predicates (regular sets etc.) keep the tight 1e-9 tolerance —
/// static robots are bit-stable.
constexpr geom::Tol kMatchTol{1e-6, 1e-6};

/// Lines 1-4 of the main algorithm: when a unique max-view robot r exists
/// and P - {r} already matches F minus a max-view non-holding point f, r
/// walks straight to f's place and nobody else moves.
std::optional<Action> finalMove(Analysis& a) {
  const auto maxP = a.maxViewP();
  if (maxP.size() != 1) return std::nullopt;
  const std::size_t r = maxP.front();
  const auto& fs = a.maxViewNonHoldersF();
  for (std::size_t k = 0; k < fs.size(); ++k) {
    const std::size_t f = fs[k];
    const auto t = a.matchWithout(r, k, kMatchTol);
    if (!t) continue;
    if (a.self() != r) return Action::stay(kFinalMove);
    const geom::Vec2 dest = t->apply(a.F()[f]);
    // The similarity fit carries ~1e-10 noise; don't chase it forever.
    if (geom::normLeq(dest - a.P()[r], 1e-8)) return Action::stay(kFinalMove);
    return Action{linePath(a.P()[r], dest), kFinalMove};
  }
  return std::nullopt;
}

}  // namespace

Action FormPatternAlgorithm::compute(const sim::Snapshot& snap,
                                     sched::RandomSource& rng) const {
  Analysis a(snap);
  if (!a.ok()) return Action::stay(kStay);

  // Appendix C: when the pattern's center is a multiplicity point, the
  // robots form F~ (center points relocated to g_F) and finish with a
  // gather move down the ray. The pattern analysis then describes F~, so
  // the main pipeline runs against it.
  if (const auto& cm = a.patternInfo().centerMultiplicity) {
    // Terminal against the ORIGINAL pattern; F~ being formed is not
    // terminal — it triggers the gather move instead.
    if (config::similar(a.P(), cm->fOriginal, kMatchTol)) {
      return Action::stay(kTerminal);
    }
    if (auto gather = centerGatherMove(a, *cm)) {
      if (gather->isMove()) {
        gather->path = gather->path.transformed(a.denormalize());
      }
      return *gather;
    }
  } else if (a.similarToF(kMatchTol)) {
    // Terminal: the pattern is formed; stay forever.
    return Action::stay(kTerminal);
  }

  Action act = Action::stay(kStay);
  if (auto fin = finalMove(a)) {
    act = *fin;
  } else if (!a.selectedRobot()) {
    // Multiplicity points are unresolvable for the election: co-located
    // robots tie in every view and only randomness can split them. With
    // detection on, dissolve them with the scattering rule first (they can
    // arise mid-run when phase 3 merges robots at a pattern multiplicity
    // point before the rest of the pattern is done). Intended merges are
    // protected: in the DPF regime a selected robot exists and this branch
    // is not taken, and formed/gather configurations returned above.
    if (a.multiplicity() && snap.robots.hasMultiplicity()) {
      static const ScatterAlgorithm scatter;
      return scatter.compute(snap, rng);  // already in the local frame
    }
    act = rsbCompute(a, rng);
  } else {
    act = dpfCompute(a);
  }
  if (act.isMove()) {
    act.path = act.path.transformed(a.denormalize());
  }
  return act;
}

}  // namespace apf::core

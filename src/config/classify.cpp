#include "config/classify.h"

#include <sstream>

#include "config/symmetry.h"
#include "config/view.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::config {

ClassifyReport classify(const Configuration& p, bool analyzeShifted,
                        const Tol& tol) {
  ClassifyReport out;
  out.n = p.size();
  if (p.empty()) return out;
  out.hasMultiplicity = p.hasMultiplicity(tol);
  out.sec = p.sec();
  out.symmetricity = symmetricity(p, out.sec.center, tol);
  out.axes = symmetryAxes(p, out.sec.center, tol);
  out.secHolders = geom::secHolders(p.span(), tol);
  out.regular = regularSetOf(p, tol);
  if (analyzeShifted) out.shifted = shiftedRegularSetOf(p, tol);

  const geom::Vec2 center =
      out.regular && out.regular->wholeConfig ? out.regular->grid.center
                                              : out.sec.center;
  out.maxView = maxViewRobots(p, center, out.hasMultiplicity, tol);
  return out;
}

std::string ClassifyReport::describe() const {
  std::ostringstream os;
  os << "n = " << n << (hasMultiplicity ? " (with multiplicity)" : "")
     << '\n';
  os << "C(P): center (" << sec.center.x << ", " << sec.center.y
     << "), radius " << sec.radius << "; held by " << secHolders.size()
     << " robot(s)\n";
  os << "symmetricity rho(P) = " << symmetricity << ", " << axes.size()
     << " axis/axes of symmetry\n";
  if (regular) {
    os << "reg(P): " << regular->indices.size() << " robots, "
       << (regular->biangular ? "bi-angled" : "equiangular")
       << (regular->wholeConfig ? " (whole configuration)" : "")
       << ", center (" << regular->grid.center.x << ", "
       << regular->grid.center.y << ")\n";
  } else {
    os << "reg(P): none\n";
  }
  if (shifted) {
    os << "shifted set: robot " << shifted->shiftedRobot
       << ", eps = " << shifted->epsilon << ", m = "
       << shifted->indices.size() << '\n';
  } else {
    os << "shifted set: none\n";
  }
  os << "max-view robots:";
  for (std::size_t i : maxView) os << ' ' << i;
  os << '\n';
  return os.str();
}

}  // namespace apf::config

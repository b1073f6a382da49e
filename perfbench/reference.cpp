#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "obs/span.h"

namespace perfbench {

double referenceSeconds() {
  constexpr int kRounds = 12000;
  volatile double sink = 0.0;
  const std::uint64_t t0 = apf::obs::nowNanos();
  for (int r = 0; r < kRounds; ++r) {
    std::vector<double> v(64 + static_cast<std::size_t>(r % 64));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sqrt(static_cast<double>(i * static_cast<std::size_t>(r)));
    }
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    sink = sink + *mid;
  }
  return static_cast<double>(apf::obs::nowNanos() - t0) / 1e9;
}

}  // namespace perfbench

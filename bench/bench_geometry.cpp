/// \file bench_geometry.cpp
/// Experiment T1: geometry-kernel microbenchmarks (google-benchmark). These
/// are the per-Look costs of every predicate a robot evaluates, i.e. the
/// constants behind the simulator's scalability, plus detection sanity: the
/// regular/shifted detectors are exercised on positive instances so the
/// timings cover the expensive path.

#include <benchmark/benchmark.h>

#include "config/generator.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "config/similarity.h"
#include "config/view.h"
#include "geom/angle.h"
#include "geom/sec.h"
#include "geom/weber.h"

namespace {

using namespace apf;
using config::Configuration;

Configuration randomConfig(std::size_t n) {
  config::Rng rng(n * 7 + 1);
  return config::randomConfiguration(n, rng);
}

Configuration shiftedConfig(std::size_t n) {
  std::vector<double> radii(n, 2.0);
  radii[0] = 1.0;
  Configuration p = config::equiangularSet(radii, {}, 0.3);
  p[0] = p[0].rotated(0.125 * geom::kTwoPi / n);
  return p;
}

void BM_SmallestEnclosingCircle(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::smallestEnclosingCircle(p.span()));
  }
}
BENCHMARK(BM_SmallestEnclosingCircle)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_WeberPoint(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::weberPoint(p.span()));
  }
}
BENCHMARK(BM_WeberPoint)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_AllViews(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  const auto c = p.sec().center;
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::allViews(p, c));
  }
}
BENCHMARK(BM_AllViews)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RegularSetNegative(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::regularSetOf(p));
  }
}
BENCHMARK(BM_RegularSetNegative)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RegularSetPositive(benchmark::State& state) {
  config::Rng rng(3);
  const Configuration p =
      config::symmetricConfiguration(state.range(0) / 2, 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::regularSetOf(p));
  }
}
BENCHMARK(BM_RegularSetPositive)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ShiftedDetectNegative(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::shiftedRegularSetOf(p));
  }
}
BENCHMARK(BM_ShiftedDetectNegative)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ShiftedDetectPositive(benchmark::State& state) {
  const Configuration p = shiftedConfig(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::shiftedRegularSetOf(p));
  }
}
BENCHMARK(BM_ShiftedDetectPositive)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SimilarityMatch(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  const Configuration q =
      p.transformed(geom::Similarity(1.1, 2.0, true, {3, 4}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::findSimilarity(p, q));
  }
}
BENCHMARK(BM_SimilarityMatch)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SimilarityReject(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  config::Rng rng(99);
  const Configuration q =
      config::randomConfiguration(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::findSimilarity(p, q));
  }
}
BENCHMARK(BM_SimilarityReject)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// A reject past the radii prefilter: each point inside C(P) is rotated
/// about C(P)'s center by its own angle (the points on C(P) stay, so the
/// circle does too). The radii match and the shape does not, so every
/// candidate transform is tried and fails, as in ψDPF's rotation phase.
void BM_SimilaritySameRadiiReject(benchmark::State& state) {
  const Configuration p = randomConfig(state.range(0));
  const geom::Circle sec = p.sec();
  std::vector<geom::Vec2> pts;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const geom::Vec2 d = p[i] - sec.center;
    pts.push_back(sec.onBoundary(p[i]) ? p[i]
                                       : sec.center + d.rotated(0.7 + 0.9 * i));
  }
  const Configuration q(std::move(pts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::findSimilarity(p, q));
  }
}
BENCHMARK(BM_SimilaritySameRadiiReject)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

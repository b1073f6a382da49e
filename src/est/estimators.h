#pragma once

/// \file estimators.h
/// Streaming estimators for Monte Carlo campaigns (docs/STATISTICS.md).
/// The paper's headline claims are statistical — probability-1 formation,
/// expected O(n) asynchronous rounds, one random bit per robot per cycle —
/// so raw success counts without error bars say nothing about whether a
/// campaign actually supports them. This file provides the two estimator
/// families every harness needs:
///
///  * BernoulliSummary — success/trial counting with Wilson (score) and
///    Clopper–Pearson (exact) confidence intervals for the underlying
///    success probability;
///  * MomentSummary — Welford streaming mean/variance (numerically stable,
///    single pass) with empirical-Bernstein confidence bounds for bounded
///    quantities such as round counts and `bitsConsumed`.
///
/// Both summaries are MERGEABLE: `merge(other)` folds another summary in
/// as if its samples had been appended, so per-batch summaries computed on
/// campaign workers can be combined at batch boundaries. Determinism
/// contract: merging the same summaries in the same order produces
/// bit-identical results on every machine (pure IEEE double arithmetic, no
/// platform-dependent library calls on the merge path), which is what lets
/// an adaptive campaign's stopping decision replay exactly (adaptive.h).
///
/// Serialization: summaries round-trip through the flat-JSON telemetry
/// dialect (obs/json.h) as fragments of the `apf.estimate.v1` report.
/// Doubles are written in shortest round-trip form and counters as exact
/// integers, so decode(encode(s)) is the identity — the same fixed-point
/// property the PR 5 journal codec relies on.

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace apf::est {

/// A two-sided confidence interval on [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double halfWidth() const { return (hi - lo) / 2.0; }
  bool contains(double x) const { return lo <= x && x <= hi; }
};

/// Standard-normal quantile z with P(Z <= z) = p, for p in (0, 1).
/// Deterministic rational approximation (Acklam) refined by one Halley
/// step; |error| < 1e-12 over the whole domain, identical on every
/// platform. Throws std::invalid_argument outside (0, 1).
double normalQuantile(double p);

/// Regularized incomplete beta function I_x(a, b) via the standard
/// continued-fraction expansion (deterministic, ~1e-14 accuracy). Exposed
/// for tests; Clopper–Pearson inverts it by bisection.
double regularizedIncompleteBeta(double a, double b, double x);

/// Streaming Bernoulli estimator: trials and successes.
struct BernoulliSummary {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;

  void add(bool success) {
    trials += 1;
    successes += success ? 1 : 0;
  }
  /// Folds `other` in as if its trials had been appended here. Exact
  /// (integer arithmetic), hence order-independent.
  void merge(const BernoulliSummary& other) {
    trials += other.trials;
    successes += other.successes;
  }
  double rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }

  /// Serializes as `{"trials":..,"successes":..}`.
  std::string toJson() const;
  /// Parses toJson() output; throws std::runtime_error on malformed input.
  static BernoulliSummary fromJson(std::string_view text);
};

/// Wilson score interval for a Bernoulli success probability. Never
/// degenerates at 0/n or n/n (unlike the Wald interval) and has close to
/// nominal coverage for small n. `confidence` in (0, 1), e.g. 0.95.
/// trials == 0 returns the vacuous [0, 1].
Interval wilson(const BernoulliSummary& s, double confidence);

/// Clopper–Pearson ("exact") interval: inverts Binomial tail tests via the
/// Beta quantile, guaranteeing coverage >= confidence at the price of
/// conservatism. trials == 0 returns [0, 1].
Interval clopperPearson(const BernoulliSummary& s, double confidence);

/// Welford/Chan streaming moments for a real-valued sample: count, mean,
/// centered second moment (m2), and observed range. `add` is the classic
/// Welford update; `merge` is Chan's pairwise combination. Both are pure
/// double arithmetic — merging the same summaries in the same order is
/// bit-reproducible everywhere.
struct MomentSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean
  double min = 0.0; ///< meaningful iff count > 0
  double max = 0.0; ///< meaningful iff count > 0

  void add(double x);
  void merge(const MomentSummary& other);

  /// Unbiased sample variance (0 for count < 2).
  double variance() const {
    return count < 2 ? 0.0 : m2 / static_cast<double>(count - 1);
  }

  /// Serializes as `{"count":..,"mean":..,"m2":..,"min":..,"max":..}`.
  std::string toJson() const;
  static MomentSummary fromJson(std::string_view text);
};

/// Empirical-Bernstein confidence bound (Maurer & Pontil 2009) for the
/// mean of a variable bounded in an interval of width `range`: with
/// probability >= confidence,
///   |mean - mu| <= sqrt(2 * Var * ln(3/delta) / n) + 3 * range * ln(3/delta) / n
/// with delta = 1 - confidence. Variance-adaptive: far tighter than
/// Hoeffding when the observed variance is small relative to range^2 —
/// which is exactly the situation for `bitsConsumed` of the paper's
/// algorithm (most runs draw a handful of bits). `range` <= 0 uses the
/// observed max - min (a common, slightly anti-conservative practice;
/// callers with a true a-priori bound should pass it). count == 0 returns
/// the degenerate [0, 0].
Interval empiricalBernstein(const MomentSummary& s, double confidence,
                            double range = 0.0);

}  // namespace apf::est

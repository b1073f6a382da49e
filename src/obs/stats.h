#pragma once

/// \file stats.h
/// Wall-time accumulators and fixed-bucket histograms for the
/// observability layer. Both are plain values (copyable, no locks, no
/// allocation on the update path) so they can live inside `sim::Metrics`
/// and be returned by value with a `RunResult`.

#include <array>
#include <cstddef>
#include <cstdint>

namespace apf::obs {

/// Steady-clock nanoseconds (monotonic; origin unspecified).
std::uint64_t nowNanos();

/// Wall-time accumulator: total nanoseconds across `count` timed sections.
class Timer {
 public:
  void add(std::uint64_t nanos) {
    nanos_ += nanos;
    count_ += 1;
  }
  std::uint64_t nanos() const { return nanos_; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t nanos_ = 0;
  std::uint64_t count_ = 0;
};

/// Fixed-bucket histogram of unsigned values with power-of-two bucket
/// boundaries: bucket 0 counts v == 0, bucket k (k >= 1) counts
/// v in [2^(k-1), 2^k). Values beyond the last boundary clamp into the
/// final bucket. Fixed layout means zero configuration, zero allocation,
/// and mergeable across runs.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 24;

  void add(std::uint64_t v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  std::uint64_t bucket(std::size_t k) const { return buckets_[k]; }
  /// Inclusive upper bound of bucket k (2^k - 1; 0 for bucket 0).
  static std::uint64_t bucketUpperBound(std::size_t k);
  /// Upper bound of the bucket containing quantile q in [0, 1]; this is a
  /// conservative (over-)estimate given bucket resolution.
  std::uint64_t quantileUpperBound(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace apf::obs

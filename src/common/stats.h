#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/archive.h"

/// Lightweight statistics containers used by every subsystem.
namespace mflush {

/// Fixed-width-bin histogram over [0, bin_width * num_bins); values beyond
/// the last bin land in the overflow bucket. Used for the Fig. 4 L2 hit-time
/// distribution.
class Histogram {
 public:
  Histogram(double bin_width, std::size_t num_bins);

  /// Hot path (called per L2 load hit): defined inline on purpose. The
  /// exact division is kept (a reciprocal multiply can shift bin-boundary
  /// values into the neighbouring bin).
  void add(double x) noexcept {
    ++total_;
    sum_ += x;
    if (x < 0.0) x = 0.0;
    const auto idx = static_cast<std::size_t>(x / bin_width_);
    if (idx >= bins_.size()) {
      ++overflow_;
    } else {
      ++bins_[idx];
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] std::size_t num_bins() const noexcept { return bins_.size(); }
  [[nodiscard]] double bin_width() const noexcept { return bin_width_; }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const {
    return bins_.at(i);
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Fraction of samples in [lo, hi) (clipped to histogram resolution).
  [[nodiscard]] double fraction_between(double lo, double hi) const noexcept;

  /// Approximate p-quantile (q in [0,1]) from bin midpoints.
  [[nodiscard]] double quantile(double q) const noexcept;

  void reset() noexcept;

  /// Merge another histogram with identical geometry (asserts on mismatch).
  void merge(const Histogram& other);

  /// The samples added since `earlier`, an earlier copy of this histogram
  /// (asserts on a geometry mismatch). Exact while every sample is an
  /// integer: the running sum then stays an exact integer in a double.
  [[nodiscard]] Histogram since(const Histogram& earlier) const;

  bool operator==(const Histogram&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(bins_, overflow_, total_, sum_);
  }

 private:
  double bin_width_;  // lint: transient — ctor config
  std::vector<std::uint64_t> bins_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Ratio helper that tolerates zero denominators.
[[nodiscard]] double safe_ratio(double num, double den) noexcept;

/// Geometric mean of a vector of positive values (0 if empty).
[[nodiscard]] double geo_mean(const std::vector<double>& xs) noexcept;

/// Arithmetic mean (0 if empty).
[[nodiscard]] double arith_mean(const std::vector<double>& xs) noexcept;

}  // namespace mflush

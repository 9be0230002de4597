#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mflush {

Histogram::Histogram(double bin_width, std::size_t num_bins)
    : bin_width_(bin_width), bins_(num_bins, 0) {
  assert(bin_width > 0.0 && num_bins > 0);
}

double Histogram::fraction_between(double lo, double hi) const noexcept {
  if (total_ == 0 || hi <= lo) return 0.0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double bin_lo = static_cast<double>(i) * bin_width_;
    const double bin_hi = bin_lo + bin_width_;
    if (bin_lo >= lo && bin_hi <= hi) acc += bins_[i];
  }
  const double top = static_cast<double>(bins_.size()) * bin_width_;
  if (hi > top) acc += overflow_;
  return static_cast<double>(acc) / static_cast<double>(total_);
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    acc += bins_[i];
    if (acc >= target) {
      return (static_cast<double>(i) + 0.5) * bin_width_;
    }
  }
  return static_cast<double>(bins_.size()) * bin_width_;
}

void Histogram::reset() noexcept {
  std::fill(bins_.begin(), bins_.end(), 0);
  overflow_ = 0;
  total_ = 0;
  sum_ = 0.0;
}

void Histogram::merge(const Histogram& other) {
  assert(other.bins_.size() == bins_.size() &&
         other.bin_width_ == bin_width_);
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
}

Histogram Histogram::since(const Histogram& earlier) const {
  assert(earlier.bins_.size() == bins_.size() &&
         earlier.bin_width_ == bin_width_);
  Histogram d = *this;
  for (std::size_t i = 0; i < bins_.size(); ++i) d.bins_[i] -= earlier.bins_[i];
  d.overflow_ -= earlier.overflow_;
  d.total_ -= earlier.total_;
  d.sum_ -= earlier.sum_;
  return d;
}

double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

double geo_mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double arith_mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace mflush

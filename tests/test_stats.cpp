#include <gtest/gtest.h>

#include "common/stats.h"

namespace mflush {
namespace {

TEST(Histogram, BinPlacement) {
  Histogram h(10.0, 5);
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(49.0);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, Overflow) {
  Histogram h(10.0, 3);
  h.add(100.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, NegativeClampsToFirstBin) {
  Histogram h(1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.bin_count(0), 1u);
}

TEST(Histogram, Mean) {
  Histogram h(5.0, 10);
  h.add(10.0);
  h.add(20.0);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, FractionBetween) {
  Histogram h(10.0, 10);
  for (double v : {5.0, 15.0, 25.0, 35.0}) h.add(v);
  EXPECT_DOUBLE_EQ(h.fraction_between(0.0, 20.0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_between(10.0, 40.0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction_between(50.0, 100.0), 0.0);
}

TEST(Histogram, Quantile) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.5, 1.0);
}

TEST(Histogram, QuantileEmpty) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(5.0, 4), b(5.0, 4);
  a.add(1.0);
  b.add(1.0);
  b.add(17.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_EQ(a.bin_count(3), 1u);
}

TEST(Histogram, Reset) {
  Histogram h(1.0, 2);
  h.add(0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bin_count(0), 0u);
}

TEST(SafeRatio, ZeroDenominator) {
  EXPECT_EQ(safe_ratio(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 3.0), 2.0);
}

TEST(Means, GeoMean) {
  EXPECT_DOUBLE_EQ(geo_mean({}), 0.0);
  EXPECT_NEAR(geo_mean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_EQ(geo_mean({1.0, 0.0}), 0.0);  // non-positive input
}

TEST(Means, ArithMean) {
  EXPECT_DOUBLE_EQ(arith_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(arith_mean({1.0, 2.0, 3.0}), 2.0);
}

}  // namespace
}  // namespace mflush

#include "common/summary.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pga::common {
namespace {

TEST(Summary, EmptyBehaviour) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_THROW((void)s.min(), InvalidArgument);
  EXPECT_THROW((void)s.max(), InvalidArgument);
  EXPECT_THROW((void)s.percentile(50), InvalidArgument);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.1380899353, 1e-9);  // sample stddev
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.5);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Summary, PercentileRangeChecked) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), InvalidArgument);
  EXPECT_THROW((void)s.percentile(101), InvalidArgument);
}

TEST(Summary, AddAfterSortedQueryStillCorrect) {
  Summary s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // forces resort on next query
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Summary, MergeCombinesSampleSets) {
  Summary a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(Summary, LargeRandomSetPercentilesMonotone) {
  Rng rng(99);
  Summary s;
  for (int i = 0; i < 10'000; ++i) s.add(rng.lognormal(3.0, 1.0));
  double prev = s.percentile(0);
  for (int p = 5; p <= 100; p += 5) {
    const double cur = s.percentile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace pga::common

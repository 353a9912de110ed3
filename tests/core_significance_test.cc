#include "core/significance.h"

#include <gtest/gtest.h>

namespace atypical {
namespace {

TEST(SignificanceThresholdTest, Formula) {
  // δs · length(T) · N with the paper defaults (δs = 5%, day units).
  SignificanceParams params;
  EXPECT_DOUBLE_EQ(SignificanceThreshold(params, DayRange{0, 13}, 450),
                   0.05 * 14 * 450);
  // An empty range has length 0.
  EXPECT_DOUBLE_EQ(SignificanceThreshold(params, DayRange{3, 2}, 450), 0.0);
}

TEST(SignificanceThresholdTest, ScalesLinearlyInEachFactor) {
  SignificanceParams params;
  params.delta_s = 0.1;
  const double base = SignificanceThreshold(params, DayRange{0, 6}, 100);
  EXPECT_DOUBLE_EQ(SignificanceThreshold(params, DayRange{0, 13}, 100),
                   2 * base);
  EXPECT_DOUBLE_EQ(SignificanceThreshold(params, DayRange{0, 6}, 200),
                   2 * base);
  params.delta_s = 0.2;
  EXPECT_DOUBLE_EQ(SignificanceThreshold(params, DayRange{0, 6}, 100),
                   2 * base);
}

TEST(IsSignificantTest, StrictInequality) {
  AtypicalCluster c;
  c.spatial.Add(1, 100.0);
  EXPECT_TRUE(IsSignificant(c, 99.9));
  EXPECT_FALSE(IsSignificant(c, 100.0));  // Def. 5 uses strict >
  EXPECT_FALSE(IsSignificant(c, 100.1));
}

TEST(FilterSignificantTest, KeepsOrderAndFilters) {
  std::vector<AtypicalCluster> clusters(3);
  clusters[0].id = 1;
  clusters[0].spatial.Add(1, 50.0);
  clusters[1].id = 2;
  clusters[1].spatial.Add(1, 150.0);
  clusters[2].id = 3;
  clusters[2].spatial.Add(1, 300.0);
  const auto sig = FilterSignificant(clusters, 100.0);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_EQ(sig[0].id, 2u);
  EXPECT_EQ(sig[1].id, 3u);
}

TEST(SignificanceDeathTest, NegativeInputsDie) {
  SignificanceParams params;
  params.delta_s = -0.1;
  EXPECT_DEATH((void)SignificanceThreshold(params, DayRange{0, 6}, 100),
               "Check failed");
}

}  // namespace
}  // namespace atypical

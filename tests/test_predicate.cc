#include <gtest/gtest.h>

#include <cmath>

#include "core/predicate.h"

namespace ssjoin::core {
namespace {

TEST(ThresholdExprTest, EvalIsLinear) {
  ThresholdExpr e{2.0, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(e.Eval(4.0, 8.0), 2.0 + 2.0 + 2.0);
}

TEST(OverlapPredicateTest, AbsoluteOverlap) {
  OverlapPredicate p = OverlapPredicate::Absolute(10.0);
  // Example 1: overlap 10 joins the Microsoft/Mcrosoft pair.
  EXPECT_TRUE(p.Test(10.0, 12.0, 11.0));
  EXPECT_FALSE(p.Test(9.0, 12.0, 11.0));
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(12.0, 11.0), 10.0);
}

TEST(OverlapPredicateTest, OneSidedNormalized) {
  // Example 2: Overlap >= 0.8 * R.norm with R.norm = 12 -> 9.6; overlap 10
  // joins the pair.
  OverlapPredicate p = OverlapPredicate::OneSidedNormalized(0.8);
  EXPECT_TRUE(p.Test(10.0, 12.0, 11.0));
  EXPECT_FALSE(p.Test(9.0, 12.0, 11.0));
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(12.0, 11.0), 9.6);
}

TEST(OverlapPredicateTest, TwoSidedNormalizedIsMaxForm) {
  // Example 2: 10 >= 80% of 12 and 80% of 11.
  OverlapPredicate p = OverlapPredicate::TwoSidedNormalized(0.8);
  EXPECT_TRUE(p.Test(10.0, 12.0, 11.0));
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(12.0, 11.0), 9.6);
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(11.0, 12.0), 9.6);  // max of the two
  EXPECT_FALSE(p.Test(9.5, 12.0, 11.0));
}

TEST(OverlapPredicateTest, ConjunctionTakesMax) {
  OverlapPredicate p;
  p.And({5.0, 0.0, 0.0}).And({0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(3.0, 100.0), 5.0);   // constant dominates
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(8.0, 100.0), 8.0);   // norm dominates
}

TEST(OverlapPredicateTest, MinPassingOverlapIsTestsExactBoundary) {
  // The kEps band lives in MinPassingOverlap alone: Test accepts an overlap
  // exactly at it and rejects the next double below it.
  for (const OverlapPredicate& p :
       {OverlapPredicate::Absolute(3.0),
        OverlapPredicate::OneSidedNormalized(0.8),
        OverlapPredicate::TwoSidedNormalized(0.85)}) {
    SCOPED_TRACE(p.ToString());
    const double r_norm = 12.375;
    const double s_norm = 11.0;
    const double min_pass = p.MinPassingOverlap(r_norm, s_norm);
    EXPECT_EQ(min_pass, p.RequiredOverlap(r_norm, s_norm) -
                            OverlapPredicate::kEps);
    EXPECT_TRUE(p.Test(min_pass, r_norm, s_norm));
    EXPECT_FALSE(p.Test(std::nextafter(min_pass, -INFINITY), r_norm, s_norm));
  }
  // A zero requirement leaves a bound just below zero.
  EXPECT_EQ(OverlapPredicate().MinPassingOverlap(5.0, 5.0),
            -OverlapPredicate::kEps);
}

TEST(OverlapPredicateTest, RequiredOverlapFloorsAtZero) {
  OverlapPredicate p;
  p.And({-10.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(1.0, 1.0), 0.0);
  EXPECT_TRUE(p.Test(0.5, 1.0, 1.0));
}

TEST(OverlapPredicateTest, EmptyPredicateAcceptsEverything) {
  OverlapPredicate p;
  EXPECT_DOUBLE_EQ(p.RequiredOverlap(5.0, 5.0), 0.0);
  EXPECT_TRUE(p.Test(0.0, 5.0, 5.0));
}

TEST(OverlapPredicateTest, SideBoundsAreValidLowerBounds) {
  OverlapPredicate p = OverlapPredicate::TwoSidedNormalized(0.8);
  // For any s_norm >= 0, RSideRequired(rn) <= RequiredOverlap(rn, sn).
  for (double rn : {0.0, 1.0, 7.5, 100.0}) {
    for (double sn : {0.0, 2.0, 50.0}) {
      EXPECT_LE(p.RSideRequired(rn), p.RequiredOverlap(rn, sn) + 1e-12);
      EXPECT_LE(p.SSideRequired(sn), p.RequiredOverlap(rn, sn) + 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(p.RSideRequired(10.0), 8.0);
  EXPECT_DOUBLE_EQ(p.SSideRequired(10.0), 8.0);
}

TEST(OverlapPredicateTest, OneSidedLeavesOtherSideUnfiltered) {
  OverlapPredicate p = OverlapPredicate::OneSidedNormalized(0.8);
  EXPECT_DOUBLE_EQ(p.RSideRequired(10.0), 8.0);
  // The S side cannot be bounded by an R-norm conjunct: required 0 ->
  // beta = wt(set) -> whole set passes (the §4.2 1-sided rule).
  EXPECT_DOUBLE_EQ(p.SSideRequired(10.0), 0.0);
}

TEST(OverlapPredicateTest, NegativeOtherCoefficientSkipped) {
  OverlapPredicate p;
  p.And({5.0, 0.0, -1.0});  // cannot be bounded from the R side
  EXPECT_DOUBLE_EQ(p.RSideRequired(100.0), 0.0);
  EXPECT_DOUBLE_EQ(p.SSideRequired(2.0), 3.0);
}

TEST(OverlapPredicateTest, IsSymmetricWhenConjunctsMirror) {
  EXPECT_TRUE(OverlapPredicate().IsSymmetric());
  EXPECT_TRUE(OverlapPredicate::Absolute(3.0).IsSymmetric());
  EXPECT_TRUE(OverlapPredicate::TwoSidedNormalized(0.8).IsSymmetric());
  EXPECT_FALSE(OverlapPredicate::OneSidedNormalized(0.8).IsSymmetric());
  OverlapPredicate edit;
  edit.And({-2.0, 0.7, 0.0}).And({-2.0, 0.0, 0.7});
  EXPECT_TRUE(edit.IsSymmetric());
  // A mirror with another constant or coefficient is not a mirror.
  OverlapPredicate skewed;
  skewed.And({-2.0, 0.7, 0.0}).And({-1.0, 0.0, 0.7});
  EXPECT_FALSE(skewed.IsSymmetric());
  OverlapPredicate both;
  both.And({1.0, 0.5, 0.25}).And({1.0, 0.25, 0.5});
  EXPECT_TRUE(both.IsSymmetric());
  // Symmetric predicates bound both sides alike, so a self-join's R and S
  // prefixes are the same.
  for (double norm : {0.0, 3.0, 11.5}) {
    EXPECT_EQ(edit.RSideRequired(norm), edit.SSideRequired(norm));
    EXPECT_EQ(both.RSideRequired(norm), both.SSideRequired(norm));
  }
}

TEST(OverlapPredicateTest, ToStringMentionsNorms) {
  OverlapPredicate p = OverlapPredicate::TwoSidedNormalized(0.8);
  std::string s = p.ToString();
  EXPECT_NE(s.find("R.norm"), std::string::npos);
  EXPECT_NE(s.find("S.norm"), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_EQ(OverlapPredicate().ToString(), "Overlap >= 0");
}

}  // namespace
}  // namespace ssjoin::core

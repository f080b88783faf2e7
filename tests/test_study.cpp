// Tests for the synthetic user-study rater panel.

#include <gtest/gtest.h>

#include "hbosim/study/raters.hpp"

namespace hbosim::study {
namespace {

TEST(RaterPanel, SevenRatersByDefault) {
  RaterPanel panel;
  const StudyResult r = panel.evaluate(0.8);
  EXPECT_EQ(r.scores.size(), 7u);
}

TEST(RaterPanel, ScoresStayOnTheLikertScale) {
  RaterPanel panel;
  for (double q : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const StudyResult r = panel.evaluate(q);
    for (double s : r.scores) {
      EXPECT_GE(s, 1.0);
      EXPECT_LE(s, 5.0);
    }
    EXPECT_GE(r.mean, 1.0);
    EXPECT_LE(r.mean, 5.0);
    EXPECT_GE(r.stdev, 0.0);
  }
}

TEST(RaterPanel, PerceptualCurveAnchors) {
  RaterPanel panel;
  // At/above the ceiling: indistinguishable from the reference (5).
  EXPECT_DOUBLE_EQ(panel.perceptual_score(0.95), 5.0);
  EXPECT_DOUBLE_EQ(panel.perceptual_score(1.0), 5.0);
  // At/below the floor: "much worse" (1).
  EXPECT_DOUBLE_EQ(panel.perceptual_score(0.35), 1.0);
  EXPECT_DOUBLE_EQ(panel.perceptual_score(0.0), 1.0);
  // Midpoint maps linearly.
  const double mid = 0.5 * (0.35 + 0.90);
  EXPECT_NEAR(panel.perceptual_score(mid), 3.0, 1e-12);
}

TEST(RaterPanel, ScoreIsMonotoneInQuality) {
  RaterPanel panel;
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double s = panel.perceptual_score(q);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(RaterPanel, MeanTracksPerceptualScore) {
  RaterPanel panel;
  const StudyResult high = panel.evaluate(0.92);
  const StudyResult low = panel.evaluate(0.5);
  EXPECT_GT(high.mean, low.mean);
  EXPECT_NEAR(high.mean, panel.perceptual_score(0.92), 0.3);
}

TEST(RaterPanel, DeterministicBySeed) {
  RaterPanel a;
  RaterPanel b;
  const StudyResult ra = a.evaluate(0.7);
  const StudyResult rb = b.evaluate(0.7);
  EXPECT_EQ(ra.scores, rb.scores);
}

}  // namespace
}  // namespace hbosim::study

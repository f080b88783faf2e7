#include "hbosim/study/raters.hpp"

#include <algorithm>

#include "hbosim/common/mathx.hpp"

namespace hbosim::study {

RaterPanel::RaterPanel() : rng_(seed) {
  biases_.reserve(static_cast<std::size_t>(raters));
  for (int i = 0; i < raters; ++i)
    biases_.push_back(rng_.normal(0.0, rater_bias_sigma));
}

double RaterPanel::perceptual_score(double quality) const {
  const double f = clampd(
      (quality - quality_floor) / (quality_ceiling - quality_floor), 0.0, 1.0);
  return 1.0 + 4.0 * f;
}

StudyResult RaterPanel::evaluate(double quality) {
  StudyResult out;
  const double base = perceptual_score(quality);
  out.scores.reserve(biases_.size());
  for (double bias : biases_) {
    const double s =
        base + bias + rng_.normal(0.0, trial_noise_sigma);
    out.scores.push_back(clampd(s, 1.0, 5.0));
  }
  out.mean = mean(out.scores);
  out.stdev = stdev(out.scores);
  return out;
}

}  // namespace hbosim::study

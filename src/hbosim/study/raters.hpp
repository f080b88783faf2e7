#pragma once

#include <cstdint>
#include <vector>

#include "hbosim/common/rng.hpp"

/// \file raters.hpp
/// Synthetic stand-in for the paper's seven-participant user study
/// (Section V-E). Participants saw virtual objects at maximum quality as
/// a reference and scored each condition 1-5 (5 = indistinguishable from
/// the reference). The paper's own premise is that the Eq. 1-2 quality
/// estimate tracks human perception (it cites the eAR/GMSD user
/// validation), so a synthetic rater inverts that mapping: estimated
/// quality is transformed through a saturating perceptual curve into a
/// mean-opinion score, with per-rater bias and trial noise.

namespace hbosim::study {

struct StudyResult {
  std::vector<double> scores;  ///< One score per rater, in [1, 5].
  double mean = 0.0;
  double stdev = 0.0;
};

class RaterPanel {
 public:
  static constexpr int raters = 7;  ///< The paper recruited seven students.
  /// Quality at (or below) which a condition is scored 1 ("much worse").
  static constexpr double quality_floor = 0.35;
  /// Quality at (or above) which a condition saturates to 5.
  static constexpr double quality_ceiling = 0.90;
  static_assert(quality_floor < quality_ceiling,
                "quality floor must be below the ceiling");
  /// Persistent per-rater offset (score units).
  static constexpr double rater_bias_sigma = 0.15;
  static constexpr double trial_noise_sigma = 0.12;  ///< Per-trial noise.
  static constexpr std::uint64_t seed = 0x57EDu;

  RaterPanel();

  /// The deterministic perceptual curve: estimated quality -> noiseless
  /// score in [1, 5].
  double perceptual_score(double quality) const;

  /// Have every rater score one condition with this estimated quality.
  StudyResult evaluate(double quality);

 private:
  std::vector<double> biases_;
  Rng rng_;
};

}  // namespace hbosim::study

// First-order voice-capacity analysis for the TDMA geometry: the
// statistical-multiplexing numbers behind the paper's Fig. 11 read-offs
// (saturation population, per-frame demand, and a Poisson no-queue
// overflow loss approximation whose 1% knee is 107 users for the default
// geometry; VoiceCapacity.NoQueueCapacityNearCalibrationTarget pins it).
#pragma once

#include "mac/geometry.hpp"

namespace charisma::analysis {

struct VoiceLoadModel {
  double activity_factor = 1.0 / 2.35;  ///< talkspurt fraction (paper §2)
  mac::FrameGeometry geometry{};

  /// Mean voice packets offered per frame by `users` devices.
  double offered_packets_per_frame(int users) const;

  /// The population at which offered packets equal the slot supply
  /// (one packet per slot): N_i * frames_per_period / activity.
  double saturation_users() const;

  /// Poisson approximation of the per-packet overflow probability when
  /// every packet gets exactly one allocation opportunity (the no-queue
  /// CHARISMA model): E[max(X - N_i, 0)] / E[X], X ~ Poisson(offered).
  double no_queue_overflow_loss(int users) const;

  /// Smallest population whose overflow loss exceeds `threshold` (linear
  /// scan; the Fig. 11 1% read-off for the no-queue configuration).
  int no_queue_capacity(double threshold) const;
};

}  // namespace charisma::analysis

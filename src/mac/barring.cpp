#include "mac/barring.hpp"

#include <algorithm>
#include <cmath>

namespace charisma::mac {

bool BarringController::end_frame(std::int64_t queue_depth) {
  if (++win_frames_ < kWindowFrames) return false;
  const double attached =
      static_cast<double>(win_user_frames_) / win_frames_;
  const double collision_ratio =
      win_minislots_ > 0
          ? static_cast<double>(win_collisions_) / win_minislots_
          : 0.0;
  const double queue = static_cast<double>(queue_depth);
  if (!seeded_) {
    attached_users_ = attached;
    collision_ratio_ = collision_ratio;
    queue_depth_ = queue;
    seeded_ = true;
  } else {
    const double a = kEwmaAlpha;
    attached_users_ += a * (attached - attached_users_);
    collision_ratio_ += a * (collision_ratio - collision_ratio_);
    queue_depth_ += a * (queue - queue_depth_);
  }

  const double idx = overload_index();
  if (idx > kTargetHigh) {
    factor_ *= kStepDown;
  } else if (idx < kTargetLow) {
    factor_ *= kStepUp;
  }
  factor_ = std::clamp(factor_, kMinFactor, 1.0);

  win_minislots_ = 0;
  win_collisions_ = 0;
  win_user_frames_ = 0;
  win_frames_ = 0;
  return true;
}

double BarringController::overload_index() const {
  // Collision ratio is the primary congestion signal (it is what collapses
  // first under a flash crowd). A backed-up request queue — more than one
  // pending request per attached user — means admitted requests are not
  // being served either, so it inflates the index; this is what lets
  // queue-centric protocols (RAMA, D-TDMA) report overload even when their
  // auction absorbs collisions.
  const double users = std::max(1.0, attached_users_);
  const double queue_pressure = std::min(1.0, queue_depth_ / users);
  const double idx = collision_ratio_ + 0.5 * queue_pressure;
  return std::clamp(idx, 0.0, 1.0);
}

double BarringController::voice_factor() const {
  return std::max(factor_, kVoiceFloor);
}

double BarringController::data_factor() const {
  return std::max(std::pow(factor_, exponent_), kMinFactor);
}

}  // namespace charisma::mac

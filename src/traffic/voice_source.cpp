#include "traffic/voice_source.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace charisma::traffic {

namespace {
constexpr double kTimeEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

VoiceSource::VoiceSource(const VoiceSourceConfig& config,
                         common::TrafficRng rng)
    : config_(config), rng_(std::move(rng)) {
  if (config.mean_talkspurt_s <= 0.0 || config.mean_silence_s <= 0.0) {
    throw std::invalid_argument("VoiceSource: state means must be positive");
  }
  if (config.voice_period <= 0.0 || config.deadline <= 0.0) {
    throw std::invalid_argument("VoiceSource: invalid period/deadline");
  }
}

void VoiceSource::ensure_initialized(common::Time now) {
  if (initialized_) return;
  initialized_ = true;
  // Every source starts silent. Starting in the stationary mix would drop
  // dozens of simultaneous first-packet contenders into the request phase
  // at t=0 — a slotted-ALOHA collision collapse no permission probability
  // recovers from, and a regime none of the studied protocols is designed
  // for. From silence, the on-off mix converges to the stationary activity
  // factor with time constant tt*ts/(tt+ts) ~ 0.57 s, well inside the
  // simulation warmup.
  talkspurt_ = false;
  state_until_ = now + rng_.exponential(config_.mean_silence_s / rate_scale_);
  next_packet_at_ = kInf;
}

void VoiceSource::set_rate_scale(double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("VoiceSource: rate scale must be positive");
  }
  rate_scale_ = scale;
}

common::Time VoiceSource::next_event_time() const {
  if (!initialized_) return -kInf;
  const common::Time expiry_t = pending_ ? pending_->deadline : kInf;
  const common::Time packet_t = talkspurt_ ? next_packet_at_ : kInf;
  return std::min({expiry_t, state_until_, packet_t});
}

VoiceSource::FrameUpdate VoiceSource::on_frame(common::Time now) {
  FrameUpdate update;
  ensure_initialized(now);

  // Replay events chronologically up to `now`. At equal timestamps the
  // processing order is expiry -> state toggle -> packet emission, so a
  // packet whose deadline coincides with the next emission (deadline ==
  // period) is dropped before its successor appears.
  for (;;) {
    const common::Time expiry_t = pending_ ? pending_->deadline : kInf;
    const common::Time toggle_t = state_until_;
    const common::Time packet_t = talkspurt_ ? next_packet_at_ : kInf;
    const common::Time next = std::min({expiry_t, toggle_t, packet_t});
    if (next > now + kTimeEps) break;

    if (expiry_t <= std::min(toggle_t, packet_t)) {
      pending_.reset();
      ++update.packets_expired;
      continue;
    }
    if (toggle_t <= packet_t) {
      talkspurt_ = !talkspurt_;
      state_until_ =
          toggle_t +
          rng_.exponential(talkspurt_ ? config_.mean_talkspurt_s
                                      : config_.mean_silence_s / rate_scale_);
      if (talkspurt_) {
        update.talkspurt_started = true;
        next_packet_at_ = toggle_t;
      } else {
        next_packet_at_ = kInf;
      }
      continue;
    }
    // Packet emission.
    if (pending_) {
      // Only reachable with deadline > period configurations; the
      // superseded packet is dropped.
      pending_.reset();
      ++update.packets_expired;
    }
    pending_ = VoicePacket{packet_t, packet_t + config_.deadline};
    ++packets_generated_;
    ++update.packets_generated;
    next_packet_at_ = packet_t + config_.voice_period;
  }
  return update;
}

}  // namespace charisma::traffic

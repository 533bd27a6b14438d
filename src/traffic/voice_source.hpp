// The paper's voice source model (§2): a two-state on-off process toggling
// between exponentially distributed talkspurts (mean 1.0 s) and silences
// (mean 1.35 s). During a talkspurt the 8 kbps codec emits one 160-bit
// packet per 20 ms voice period; each packet carries a deadline one voice
// period after generation (footnote 4) and is dropped by the device if
// still untransmitted then.
//
// The source is driven in absolute time: on_frame(now) replays every state
// toggle / packet emission / deadline expiry up to `now` in chronological
// order. Fixed-frame protocols call it at 2.5 ms boundaries (so state
// changes effectively align with frame boundaries, as the paper assumes);
// the variable-frame protocols (RMAV, DRMA) call it at their own frame
// starts and see exactly the same underlying process.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::traffic {

struct VoicePacket {
  common::Time generated_at = 0.0;
  common::Time deadline = 0.0;
};

struct VoiceSourceConfig {
  double mean_talkspurt_s = 1.0;
  double mean_silence_s = 1.35;
  common::Time voice_period = 20e-3;  ///< packet emission interval
  common::Time deadline = 20e-3;      ///< per-packet life (paper fn. 4)

  /// Long-run fraction of time in talkspurt.
  double activity_factor() const {
    return mean_talkspurt_s / (mean_talkspurt_s + mean_silence_s);
  }
};

class VoiceSource {
 public:
  /// `rng` is the source's private stream, a TrafficRng: an RngStream or a
  /// CompactRngStream converts implicitly. The source draws exponential
  /// holding times from it.
  VoiceSource(const VoiceSourceConfig& config, common::TrafficRng rng);

  /// What happened since the previous call (events up to and including
  /// `now`).
  struct FrameUpdate {
    bool talkspurt_started = false;
    int packets_generated = 0;
    int packets_expired = 0;
  };

  /// Advances the source to `now` (non-decreasing across calls).
  FrameUpdate on_frame(common::Time now);

  bool in_talkspurt() const { return talkspurt_; }
  bool has_packet() const { return pending_.has_value(); }
  const VoicePacket& packet() const { return *pending_; }

  /// When the next packet will be emitted if the talkspurt persists.
  common::Time next_packet_at() const { return next_packet_at_; }

  /// The earliest instant on_frame has anything to replay: the minimum of
  /// the pending packet's deadline, the next state toggle and (while
  /// talking) the next emission — the bound on_frame's own replay loop
  /// stops at. -inf before the first on_frame call, which draws the initial
  /// silence. on_frame(t) with t + 1e-9 < next_event_time() changes nothing
  /// and returns an all-zero update; consume_packet and set_rate_scale can
  /// only move the next event later, never earlier.
  common::Time next_event_time() const;

  /// Removes the pending packet (it was transmitted — successfully or not;
  /// voice has no link-layer retransmission).
  void consume_packet() { pending_.reset(); }

  std::int64_t packets_generated() const { return packets_generated_; }
  const VoiceSourceConfig& config() const { return config_; }

  /// Scenario-level call intensity scaling (flash crowds, diurnal tides):
  /// silences shrink by the factor, so calls arrive `scale` times as often
  /// while talkspurt lengths stay the paper's. scale = 1 (the default) is
  /// the exact legacy process — the divided mean is bit-identical — and the
  /// factor applies from the next silence draw, not retroactively.
  void set_rate_scale(double scale);
  double rate_scale() const { return rate_scale_; }

 private:
  void ensure_initialized(common::Time now);

  VoiceSourceConfig config_;
  common::TrafficRng rng_;
  double rate_scale_ = 1.0;
  bool talkspurt_ = false;
  common::Time state_until_ = 0.0;     ///< absolute toggle time
  common::Time next_packet_at_ = 0.0;  ///< next emission while talking
  std::optional<VoicePacket> pending_;
  std::int64_t packets_generated_ = 0;
  bool initialized_ = false;
};

}  // namespace charisma::traffic

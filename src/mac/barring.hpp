// Closed-loop access-class barring (overload survival). One controller per
// cell engine runs the whole loop: it counts a control window of frames
// (attached user-frames, request minislots, collisions), folds each closed
// window into an EWMA of the cell's load, and steps a multiplicative-
// increase / multiplicative-decrease admission factor on the smoothed
// congestion index — the same family as "Measurement-Adaptive Cellular
// Random Access Protocols" (PAPERS.md). Every protocol's contention entry
// multiplies the class factor into its candidate admission: a user barred
// this frame simply does not contend. Voice is barred more gently than data
// (the paper's voice-priority stance). The controller lives inside its
// cell's engine (share-nothing), so the parallel world stays bit-identical
// to serial.
#pragma once

#include <cstdint>

#include "mac/contention.hpp"

namespace charisma::mac {

class BarringController {
 public:
  /// Congestion band of overload_index(). Above kTargetHigh the controller
  /// tightens; below kTargetLow it relaxes; inside the band it holds — the
  /// hysteresis that stops limit-cycling.
  static constexpr double kTargetHigh = 0.40;
  static constexpr double kTargetLow = 0.12;

  /// Multiplicative steps: tighten factor *= kStepDown, relax
  /// factor *= kStepUp (clamped to [kMinFactor, 1]).
  static constexpr double kStepDown = 0.70;
  static constexpr double kStepUp = 1.18;

  /// Floor of the common admission factor (data may sit on it; voice has
  /// its own, higher floor so a starved cell can still admit talkspurts).
  static constexpr double kMinFactor = 1.0 / 128.0;
  static constexpr double kVoiceFloor = 1.0 / 16.0;

  /// Data is barred harder than voice: data factor = factor^kDataExponent.
  static constexpr double kDataExponent = 2.0;

  /// Control-window length in frames (one EWMA observation and one
  /// controller step per window).
  static constexpr int kWindowFrames = 8;

  /// EWMA weight of the newest window (1 would mean no memory).
  static constexpr double kEwmaAlpha = 0.35;

  /// Counts one frame's attached population into the open window.
  void note_attached(std::int64_t users) { win_user_frames_ += users; }

  /// Counts one request phase into the open window.
  void note_contention(const ContentionTally& tally) {
    win_minislots_ += tally.minislots;
    win_collisions_ += tally.collisions;
  }

  /// Ends one frame. Every kWindowFrames-th call closes the window: its
  /// mean attached population, its collision ratio and `queue_depth` (the
  /// requests the base station holds now) fold into the EWMA, and the
  /// factor takes one MIMD step. Returns true when a window closed.
  bool end_frame(std::int64_t queue_depth);

  /// Scalar congestion index in [0, 1]: the smoothed collision ratio,
  /// inflated when the request queue backs up beyond one pending request
  /// per attached user. 0 until the first window closes.
  double overload_index() const;

  /// Admission probability applied to voice contention entry, in
  /// [kVoiceFloor, 1]. 1 means voice is not barred (no RNG draw).
  double voice_factor() const;

  /// Admission probability applied to data contention entry, in
  /// [kMinFactor, 1]. Tracks factor^kDataExponent, so data backs off
  /// first and deepest.
  double data_factor() const;

  /// The raw common factor (before class floors) — for tests/benches.
  double raw_factor() const { return factor_; }

 private:
  // The open control window.
  std::int64_t win_minislots_ = 0;
  std::int64_t win_collisions_ = 0;
  std::int64_t win_user_frames_ = 0;
  int win_frames_ = 0;

  // The smoothed load; the first closed window seeds it directly, so a
  // fresh controller does not drag a zero history through the warmup.
  bool seeded_ = false;
  double attached_users_ = 0.0;
  double collision_ratio_ = 0.0;
  double queue_depth_ = 0.0;

  double factor_ = 1.0;

  // data_factor() reads its exponent here, not from kDataExponent: GCC
  // compiles pow(x, 2.0) with a constant 2.0 as x*x, which rounds some
  // reachable factors (0.7^3 * 1.18^4 among them) one ulp away from libm's
  // pow, and barring-on runs must reproduce their data factors exactly.
  double exponent_ = kDataExponent;
};

}  // namespace charisma::mac

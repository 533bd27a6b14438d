// RMAV — reservation-based multiple access with variable frame (Jeong,
// Choi & Jeon [12], paper §3.2): the frame contains only assigned
// information slots plus a single trailing "competitive" request slot, so
// the frame length tracks the load (short delay when idle, high throughput
// when busy). A winner of the competitive slot is assigned slots in the
// *next* frame: one slot for a voice packet, up to Pmax slots for a data
// burst. Because there is exactly one contention opportunity per frame —
// and, in this data-oriented design, every pending packet (voice included)
// must win it — the protocol thrashes once a moderate number of users
// contend, which is exactly the instability the paper reports ("RMAV
// quickly becomes unstable even with a moderate number of voice users").
// RMAV inherently has no request queue (footnote 3): the single
// competitive slot yields at most one winner, who is always served next
// frame. The fixed-throughput PHY is used.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"

namespace charisma::protocols {

class RmavProtocol : public mac::ProtocolEngine {
 public:
  /// Max information slots per data grant (P_max; paper: 10).
  static constexpr int kPmax = 10;
  /// RMAV's LAN-oriented design contends aggressively in the single
  /// competitive slot (p = 0.5 here, versus the 0.2-0.3 of the
  /// TDMA-framed protocols, whose many minislots can afford throttling).
  /// With one opportunity per frame, concurrent contenders collide and
  /// accumulate — the mechanism behind the paper's "RMAV quickly becomes
  /// unstable even with a moderate number of voice users" observation.
  static constexpr double kPermissionProb = 0.5;

  explicit RmavProtocol(const mac::ScenarioParams& params);

  std::string name() const override { return "RMAV"; }

 protected:
  common::Time process_frame() override;
  void on_user_detached(common::UserId id) override;
  void on_user_attached(common::UserId id) override;

 private:
  std::vector<common::UserId> grants_;  ///< winners to serve this frame
  /// The competitive slot's contenders, reused across frames.
  std::vector<common::UserId> candidates_;
};

}  // namespace charisma::protocols

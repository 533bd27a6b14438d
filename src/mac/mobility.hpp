// User mobility — the "nomadic" in nomadic computing (paper §1, §6). Every
// user gets a position trajectory over a rectangular service area:
//
//   * kConstantVelocity — random initial position and heading, fixed speed,
//     specular reflection at the field boundary (the classic "billiard"
//     model; stationary long-run position distribution is uniform).
//   * kRandomWaypoint — pick a uniform waypoint, travel to it at the
//     configured speed, repeat without pausing (Johnson & Maltz with zero
//     pause time). The standard mobility model of the ad-hoc/cellular
//     simulation literature.
//
// Positions feed the distance-based path loss that CellularWorld turns
// into each cell's time-varying mean SNR, which is what makes handoff a
// *channel-quality* decision rather than a scripted event.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mac/geometry.hpp"  // Vec2 / distance_m

namespace charisma::mac {

struct MobilityConfig {
  enum class Model { kConstantVelocity, kRandomWaypoint };

  Model model = Model::kRandomWaypoint;
  double field_width_m = 2000.0;
  double field_height_m = 1000.0;
  common::Speed speed_mps = common::km_per_hour(50.0);

  bool valid() const {
    return field_width_m > 0.0 && field_height_m > 0.0 && speed_mps >= 0.0;
  }
};

class MobilityModel {
 public:
  /// All randomness (initial placement, headings, waypoints) comes from
  /// `rng`, so trajectories are reproducible and independent of the
  /// channel/traffic streams.
  MobilityModel(const MobilityConfig& config, int num_users,
                common::RngStream rng);

  /// Advances every user to absolute time `t` (non-decreasing calls).
  void advance_to(common::Time t);

  // ---- Sharded two-phase advancement (CellularWorld epoch coordinator) --
  // A serial advance_to(t) draws waypoints from the one shared stream in
  // ascending user order, each user's draws completing before the next
  // user's begin. The sharded protocol reproduces that draw sequence
  // exactly: phase A (advance_span, parallel on disjoint user ranges)
  // walks each trajectory with the identical arithmetic but *stops* at the
  // first point that needs a draw, recording the user's exact walk state;
  // phase B (resume, coordinator, ascending user id) finishes the
  // suspended walks with draws enabled — the only RNG consumers — so the
  // stream advances precisely as the serial loop would have advanced it.
  // commit(t) then moves the epoch clock. Constant-velocity users never
  // draw and complete entirely in phase A.

  /// One suspended random-waypoint walk: the user, and the exact time
  /// left in the epoch when the serial segment loop hit a draw.
  struct Suspended {
    int user = 0;
    common::Time remaining = 0.0;
  };

  /// Phase A: advances users [begin, end) toward absolute time `t`
  /// without consuming RNG; users needing a waypoint draw are appended to
  /// `out` (ascending, since the range is walked in order) with their walk
  /// state. Safe to call concurrently on disjoint ranges. Positions of
  /// suspended users are not final until resume() runs.
  void advance_span(common::Time t, int begin, int end,
                    std::vector<Suspended>& out);
  /// Phase B (coordinator): completes suspended walks, drawing waypoints
  /// from the shared stream. Callers must present records in ascending
  /// user order across all calls of the epoch.
  void resume(const std::vector<Suspended>& suspended);
  /// Commits the epoch clock after phases A/B (non-decreasing, like
  /// advance_to).
  void commit(common::Time t);

  int size() const { return static_cast<int>(users_.size()); }
  Vec2 position(int user) const;
  /// Current velocity (m/s).
  Vec2 velocity(int user) const;
  const MobilityConfig& config() const { return config_; }

 private:
  struct UserState {
    Vec2 pos;
    Vec2 vel;
    Vec2 waypoint;  // random-waypoint target
  };

  void advance_constant_velocity(UserState& u, common::Time dt);
  /// The random-waypoint segment loop shared by the serial and two-phase
  /// paths: walks `u` forward consuming `remaining` with the serial code's
  /// exact arithmetic. Returns true when the interval is consumed; returns
  /// false — with `remaining` holding the resumable walk state — when a
  /// waypoint draw is needed but `allow_draw` is off.
  bool walk_random_waypoint(UserState& u, common::Time& remaining,
                            bool allow_draw);
  void pick_waypoint(UserState& u);

  MobilityConfig config_;
  common::RngStream rng_;
  std::vector<UserState> users_;
  common::Time now_ = 0.0;
};

}  // namespace charisma::mac

#include "mac/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace charisma::mac {

MobilityModel::MobilityModel(const MobilityConfig& config, int num_users,
                             common::RngStream rng)
    : config_(config), rng_(std::move(rng)) {
  if (!config.valid() || num_users < 0) {
    throw std::invalid_argument("MobilityModel: invalid configuration");
  }
  users_.resize(static_cast<std::size_t>(num_users));
  for (auto& u : users_) {
    u.pos = {rng_.uniform(0.0, config_.field_width_m),
             rng_.uniform(0.0, config_.field_height_m)};
    if (config_.model == MobilityConfig::Model::kConstantVelocity) {
      const double heading = rng_.uniform(0.0, 2.0 * std::numbers::pi);
      u.vel = {config_.speed_mps * std::cos(heading),
               config_.speed_mps * std::sin(heading)};
    } else {
      pick_waypoint(u);
    }
  }
}

void MobilityModel::advance_to(common::Time t) {
  if (t < now_) {
    throw std::logic_error("MobilityModel::advance_to: time went backwards");
  }
  const common::Time dt = t - now_;
  if (dt <= 0.0 || config_.speed_mps <= 0.0) {
    now_ = t;
    return;
  }
  for (auto& u : users_) {
    if (config_.model == MobilityConfig::Model::kConstantVelocity) {
      advance_constant_velocity(u, dt);
    } else {
      common::Time remaining = dt;
      walk_random_waypoint(u, remaining, /*allow_draw=*/true);
    }
  }
  now_ = t;
}

void MobilityModel::advance_constant_velocity(UserState& u, common::Time dt) {
  // Specular reflection: fold the unbounded straight-line position back
  // into the field. One axis at a time; each fold flips the velocity sign.
  auto reflect = [](double& x, double& v, double span) {
    // Fold into [0, 2*span) then mirror the upper half.
    x = std::fmod(x, 2.0 * span);
    if (x < 0.0) x += 2.0 * span;
    if (x >= span) {
      x = 2.0 * span - x;
      v = -v;
    }
  };
  u.pos.x += u.vel.x * dt;
  u.pos.y += u.vel.y * dt;
  reflect(u.pos.x, u.vel.x, config_.field_width_m);
  reflect(u.pos.y, u.vel.y, config_.field_height_m);
}

bool MobilityModel::walk_random_waypoint(UserState& u,
                                         common::Time& remaining,
                                         bool allow_draw) {
  // Segment walk: leg to waypoint -> new waypoint, consuming the epoch in
  // pieces (an epoch can span several short legs).
  while (remaining > 0.0) {
    const double leg = distance_m(u.pos, u.waypoint);
    if (leg <= 1e-9) {
      if (!allow_draw) return false;  // suspend: `remaining` resumable
      pick_waypoint(u);
      continue;
    }
    const common::Time travel = leg / config_.speed_mps;
    const double ux = (u.waypoint.x - u.pos.x) / leg;
    const double uy = (u.waypoint.y - u.pos.y) / leg;
    u.vel = {config_.speed_mps * ux, config_.speed_mps * uy};
    if (travel <= remaining) {
      u.pos = u.waypoint;
      remaining -= travel;
    } else {
      u.pos.x += u.vel.x * remaining;
      u.pos.y += u.vel.y * remaining;
      remaining = 0.0;
    }
  }
  return true;
}

void MobilityModel::advance_span(common::Time t, int begin, int end,
                                 std::vector<Suspended>& out) {
  if (t < now_) {
    throw std::logic_error("MobilityModel::advance_span: time went backwards");
  }
  const common::Time dt = t - now_;
  if (dt <= 0.0 || config_.speed_mps <= 0.0) return;  // commit() moves now_
  begin = std::max(begin, 0);
  end = std::min(end, static_cast<int>(users_.size()));
  for (int i = begin; i < end; ++i) {
    UserState& u = users_[static_cast<std::size_t>(i)];
    if (config_.model == MobilityConfig::Model::kConstantVelocity) {
      advance_constant_velocity(u, dt);  // draw-free, always completes
      continue;
    }
    common::Time remaining = dt;
    if (!walk_random_waypoint(u, remaining, /*allow_draw=*/false)) {
      out.push_back(Suspended{i, remaining});
    }
  }
}

void MobilityModel::resume(const std::vector<Suspended>& suspended) {
  for (const Suspended& s : suspended) {
    common::Time remaining = s.remaining;
    walk_random_waypoint(users_[static_cast<std::size_t>(s.user)], remaining,
                         /*allow_draw=*/true);
  }
}

void MobilityModel::commit(common::Time t) {
  if (t < now_) {
    throw std::logic_error("MobilityModel::commit: time went backwards");
  }
  now_ = t;
}

void MobilityModel::pick_waypoint(UserState& u) {
  u.waypoint = {rng_.uniform(0.0, config_.field_width_m),
                rng_.uniform(0.0, config_.field_height_m)};
}

Vec2 MobilityModel::position(int user) const {
  return users_.at(static_cast<std::size_t>(user)).pos;
}

Vec2 MobilityModel::velocity(int user) const {
  return users_.at(static_cast<std::size_t>(user)).vel;
}

}  // namespace charisma::mac

#include "mac/reservation.hpp"

#include <stdexcept>

namespace charisma::mac {

ReservationGrid::ReservationGrid(int phases, int slots) : slots_(slots) {
  if (phases <= 0 || slots <= 0) {
    throw std::invalid_argument("ReservationGrid: invalid dimensions");
  }
  grid_.assign(static_cast<std::size_t>(phases),
               std::vector<common::UserId>(
                   static_cast<std::size_t>(slots), common::kNoUser));
}

std::optional<int> ReservationGrid::reserve(int phase, common::UserId user) {
  if (phase < 0 || phase >= phases()) {
    throw std::out_of_range("ReservationGrid::reserve: bad phase");
  }
  if (by_user_.count(user) > 0) return std::nullopt;
  auto& row = grid_[static_cast<std::size_t>(phase)];
  for (int s = 0; s < slots_; ++s) {
    if (row[static_cast<std::size_t>(s)] == common::kNoUser) {
      row[static_cast<std::size_t>(s)] = user;
      by_user_[user] = Position{phase, s};
      return s;
    }
  }
  return std::nullopt;
}

bool ReservationGrid::reserve_at(int phase, int slot, common::UserId user) {
  if (phase < 0 || phase >= phases() || slot < 0 || slot >= slots_) {
    throw std::out_of_range("ReservationGrid::reserve_at: bad position");
  }
  if (by_user_.count(user) > 0) return false;
  auto& cell = grid_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(slot)];
  if (cell != common::kNoUser) return false;
  cell = user;
  by_user_[user] = Position{phase, slot};
  return true;
}

void ReservationGrid::release(common::UserId user) {
  auto it = by_user_.find(user);
  if (it == by_user_.end()) return;
  grid_[static_cast<std::size_t>(it->second.phase)]
       [static_cast<std::size_t>(it->second.slot)] = common::kNoUser;
  by_user_.erase(it);
}

bool ReservationGrid::has_reservation(common::UserId user) const {
  return by_user_.count(user) > 0;
}

std::optional<ReservationGrid::Position> ReservationGrid::position(
    common::UserId user) const {
  auto it = by_user_.find(user);
  if (it == by_user_.end()) return std::nullopt;
  return it->second;
}

void ReservationGrid::due_in_phase(int phase,
                                   std::vector<common::UserId>& due) const {
  if (phase < 0 || phase >= phases()) {
    throw std::out_of_range("ReservationGrid::due_in_phase: bad phase");
  }
  due.clear();
  for (common::UserId u : grid_[static_cast<std::size_t>(phase)]) {
    if (u != common::kNoUser) due.push_back(u);
  }
}

common::UserId ReservationGrid::user_at(int phase, int slot) const {
  if (phase < 0 || phase >= phases() || slot < 0 || slot >= slots_) {
    throw std::out_of_range("ReservationGrid::user_at: bad position");
  }
  return grid_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(slot)];
}

}  // namespace charisma::mac

#include "mac/reservation.hpp"

#include <algorithm>
#include <stdexcept>

namespace charisma::mac {

ReservationGrid::ReservationGrid(int phases, int slots) : slots_(slots) {
  if (phases <= 0 || slots <= 0) {
    throw std::invalid_argument("ReservationGrid: invalid dimensions");
  }
  grid_.assign(static_cast<std::size_t>(phases),
               std::vector<common::UserId>(
                   static_cast<std::size_t>(slots), common::kNoUser));
  by_user_.reserve(static_cast<std::size_t>(phases) *
                   static_cast<std::size_t>(slots));
}

std::vector<ReservationGrid::Holder>::const_iterator
ReservationGrid::lower_bound(common::UserId user) const {
  return std::lower_bound(
      by_user_.begin(), by_user_.end(), user,
      [](const Holder& h, common::UserId id) { return h.user < id; });
}

void ReservationGrid::book(common::UserId user, Position position) {
  by_user_.insert(lower_bound(user), Holder{user, position});
}

std::optional<int> ReservationGrid::reserve(int phase, common::UserId user) {
  if (phase < 0 || phase >= phases()) {
    throw std::out_of_range("ReservationGrid::reserve: bad phase");
  }
  if (has_reservation(user)) return std::nullopt;
  auto& row = grid_[static_cast<std::size_t>(phase)];
  for (int s = 0; s < slots_; ++s) {
    if (row[static_cast<std::size_t>(s)] == common::kNoUser) {
      row[static_cast<std::size_t>(s)] = user;
      book(user, Position{phase, s});
      return s;
    }
  }
  return std::nullopt;
}

bool ReservationGrid::reserve_at(int phase, int slot, common::UserId user) {
  if (phase < 0 || phase >= phases() || slot < 0 || slot >= slots_) {
    throw std::out_of_range("ReservationGrid::reserve_at: bad position");
  }
  if (has_reservation(user)) return false;
  auto& cell = grid_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(slot)];
  if (cell != common::kNoUser) return false;
  cell = user;
  book(user, Position{phase, slot});
  return true;
}

void ReservationGrid::release(common::UserId user) {
  const auto it = lower_bound(user);
  if (it == by_user_.end() || it->user != user) return;
  grid_[static_cast<std::size_t>(it->position.phase)]
       [static_cast<std::size_t>(it->position.slot)] = common::kNoUser;
  by_user_.erase(it);
}

bool ReservationGrid::has_reservation(common::UserId user) const {
  const auto it = lower_bound(user);
  return it != by_user_.end() && it->user == user;
}

std::optional<ReservationGrid::Position> ReservationGrid::position(
    common::UserId user) const {
  const auto it = lower_bound(user);
  if (it == by_user_.end() || it->user != user) return std::nullopt;
  return it->position;
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

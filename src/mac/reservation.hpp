// Voice reservation grid for the reservation-based baselines (D-TDMA/FR,
// D-TDMA/VR, RAMA, DRMA): a reserved voice user owns one (phase, slot)
// position — one information slot in every `frames_per_voice_period`-th
// frame, matching "the user can use a time slot in each frame every 20 msec
// until the current talkspurt terminates" (§3.4). The grid capacity is
// phases x slots positions; a full phase blocks new reservations in frames
// of that phase even if other phases have room, which is the packing
// inefficiency the paper's FCFS baselines pay.
#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"

namespace charisma::mac {

class ReservationGrid {
 public:
  ReservationGrid(int phases, int slots);

  /// Reserves the lowest free slot in `phase` for `user`; nullopt when the
  /// phase is fully booked or the user already holds a reservation.
  std::optional<int> reserve(int phase, common::UserId user);

  /// Reserves the specific (phase, slot) position (used by DRMA, where a
  /// voice winner is served in — and keeps — a particular slot). Returns
  /// false if the position is taken or the user already holds one.
  bool reserve_at(int phase, int slot, common::UserId user);

  /// Releases the user's reservation; no-op when none is held.
  void release(common::UserId user);

  bool has_reservation(common::UserId user) const;

  /// The user's (phase, slot) position; nullopt when not reserved.
  struct Position {
    int phase = 0;
    int slot = 0;
  };
  std::optional<Position> position(common::UserId user) const;

  /// Replaces `due`'s contents with the users whose reservation falls in
  /// the given phase, in slot order. The caller owns the vector, so a
  /// frame loop that keeps it reuses its storage.
  void due_in_phase(int phase, std::vector<common::UserId>& due) const;

  /// Occupant of a specific position (kNoUser when free).
  common::UserId user_at(int phase, int slot) const;

  int occupied_total() const { return static_cast<int>(by_user_.size()); }

  int phases() const { return static_cast<int>(grid_.size()); }

 private:
  struct Holder {
    common::UserId user;
    Position position;
  };
  /// by_user_'s entry for `user`, or where it would go.
  std::vector<Holder>::const_iterator lower_bound(common::UserId user) const;
  /// Books a free (phase, slot) for a user holding nothing yet.
  void book(common::UserId user, Position position);

  int slots_;
  std::vector<std::vector<common::UserId>> grid_;  ///< [phase][slot] -> user
  /// The holders, ascending by user id. Its capacity is the grid's size,
  /// reserved at construction, so reserving and releasing never allocate.
  std::vector<Holder> by_user_;
};

}  // namespace charisma::mac

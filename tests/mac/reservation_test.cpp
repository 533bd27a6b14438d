#include "mac/reservation.hpp"

#include <gtest/gtest.h>

namespace charisma::mac {
namespace {

TEST(Reservation, ReserveAssignsLowestFreeSlot) {
  ReservationGrid grid(8, 10);
  EXPECT_EQ(grid.reserve(3, 100).value(), 0);
  EXPECT_EQ(grid.reserve(3, 101).value(), 1);
  EXPECT_EQ(grid.reserve(4, 102).value(), 0);
}

TEST(Reservation, PhaseFullReturnsNullopt) {
  ReservationGrid grid(2, 2);
  EXPECT_TRUE(grid.reserve(0, 1).has_value());
  EXPECT_TRUE(grid.reserve(0, 2).has_value());
  EXPECT_FALSE(grid.reserve(0, 3).has_value());
  // Other phase unaffected.
  EXPECT_TRUE(grid.reserve(1, 3).has_value());
}

TEST(Reservation, DoubleReserveFails) {
  ReservationGrid grid(8, 10);
  EXPECT_TRUE(grid.reserve(0, 5).has_value());
  EXPECT_FALSE(grid.reserve(1, 5).has_value());
}

TEST(Reservation, ReleaseFreesSlot) {
  ReservationGrid grid(2, 1);
  EXPECT_TRUE(grid.reserve(0, 7).has_value());
  EXPECT_FALSE(grid.reserve(0, 8).has_value());
  grid.release(7);
  EXPECT_FALSE(grid.has_reservation(7));
  EXPECT_TRUE(grid.reserve(0, 8).has_value());
}

TEST(Reservation, ReleaseUnknownIsNoop) {
  ReservationGrid grid(2, 2);
  EXPECT_NO_THROW(grid.release(99));
}

TEST(Reservation, DueInPhaseSlotOrder) {
  ReservationGrid grid(4, 5);
  grid.reserve(2, 10);
  grid.reserve(2, 11);
  grid.reserve(2, 12);
  grid.release(11);
  std::vector<common::UserId> due;
  grid.due_in_phase(2, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 10);
  EXPECT_EQ(due[1], 12);
  grid.due_in_phase(0, due);  // replaces, never appends
  EXPECT_TRUE(due.empty());
}

TEST(Reservation, PositionLookup) {
  ReservationGrid grid(8, 10);
  grid.reserve(5, 42);
  const auto pos = grid.position(42);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(pos->phase, 5);
  EXPECT_EQ(pos->slot, 0);
  EXPECT_FALSE(grid.position(43).has_value());
}

TEST(Reservation, ReserveAtSpecificSlot) {
  ReservationGrid grid(8, 10);
  EXPECT_TRUE(grid.reserve_at(1, 7, 20));
  EXPECT_EQ(grid.user_at(1, 7), 20);
  EXPECT_FALSE(grid.reserve_at(1, 7, 21));  // occupied
  EXPECT_FALSE(grid.reserve_at(2, 3, 20));  // user already holds one
}

TEST(Reservation, UserAtEmpty) {
  ReservationGrid grid(2, 2);
  EXPECT_EQ(grid.user_at(0, 0), common::kNoUser);
}

TEST(Reservation, OccupancyCounts) {
  ReservationGrid grid(4, 3);
  grid.reserve(0, 1);
  grid.reserve(0, 2);
  grid.reserve(1, 3);
  EXPECT_EQ(grid.occupied_total(), 3);
  std::vector<common::UserId> due;
  grid.due_in_phase(0, due);
  EXPECT_EQ(due.size(), 2u);
  grid.due_in_phase(2, due);
  EXPECT_TRUE(due.empty());
  grid.release(2);
  EXPECT_EQ(grid.occupied_total(), 2);
  grid.due_in_phase(0, due);
  EXPECT_EQ(due, std::vector<common::UserId>{1});
}

TEST(Reservation, BoundsChecking) {
  ReservationGrid grid(4, 3);
  EXPECT_THROW(grid.reserve(-1, 1), std::out_of_range);
  EXPECT_THROW(grid.reserve(4, 1), std::out_of_range);
  std::vector<common::UserId> due;
  EXPECT_THROW(grid.due_in_phase(9, due), std::out_of_range);
  EXPECT_THROW(grid.due_in_phase(4, due), std::out_of_range);
  EXPECT_THROW(grid.user_at(0, 3), std::out_of_range);
  EXPECT_THROW(grid.reserve_at(0, -1, 1), std::out_of_range);
}

TEST(Reservation, InvalidDimensions) {
  EXPECT_THROW(ReservationGrid(0, 5), std::invalid_argument);
  EXPECT_THROW(ReservationGrid(5, 0), std::invalid_argument);
}

TEST(Reservation, FullGridCapacity) {
  ReservationGrid grid(8, 10);
  int admitted = 0;
  for (int u = 0; u < 100; ++u) {
    if (grid.reserve(u % 8, u).has_value()) ++admitted;
  }
  EXPECT_EQ(admitted, 80);  // phases * slots positions
  EXPECT_EQ(grid.occupied_total(), 80);
}

}  // namespace
}  // namespace charisma::mac

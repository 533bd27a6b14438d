// mac::strongest_with_hysteresis — the attachment rule CellularWorld
// applies to every user's band pilots each decision epoch.
#include "mac/attachment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace charisma::mac {
namespace {

// The rule takes a std::span (CellularWorld passes one user's gathered
// band pilots); spell the literal pilot sets out as vectors.
std::vector<double> pilots(std::initializer_list<double> db) { return db; }

TEST(HysteresisRule, StaysAttachedWithinMargin) {
  EXPECT_EQ(strongest_with_hysteresis(pilots({10.0, 12.0}), 0, 3.0), 0);
  EXPECT_EQ(strongest_with_hysteresis(pilots({10.0, 13.5}), 0, 3.0), 1);
}

TEST(HysteresisRule, ThreeStationRegression) {
  // Regression for the old rule, which compared each challenger against the
  // running best instead of the attached pilot: a weaker challenger scanned
  // earlier raised the bar and blocked the strongest station.
  //
  // Attached to station 2 at 0 dB; stations 0 (6 dB) and 1 (9 dB) both
  // clear the 5 dB hysteresis. The old scan moved best to station 0, then
  // required station 1 to beat 6 + 5 = 11 dB and kept the weaker target.
  EXPECT_EQ(strongest_with_hysteresis(pilots({6.0, 9.0, 0.0}), 2, 5.0), 1);
  // Same shape with the attached station scanned first: the old rule
  // compared station 2 against station 1 + hysteresis and refused a
  // perfectly eligible stronger pilot.
  EXPECT_EQ(strongest_with_hysteresis(pilots({0.0, 5.5, 6.0}), 0, 5.0), 2);
}

TEST(HysteresisRule, AlwaysPicksStrongestEligiblePilot) {
  // Property: the result is either the attached station (when nobody
  // clears the margin) or the globally strongest pilot among the stations
  // that do clear it — never an intermediate challenger.
  common::RngStream rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 2 + rng.uniform_int(6);
    std::vector<double> pilots;
    for (int s = 0; s < n; ++s) pilots.push_back(rng.uniform(-20.0, 20.0));
    const int attached = rng.uniform_int(n);
    const double margin = rng.uniform(0.0, 8.0);
    const int chosen = strongest_with_hysteresis(pilots, attached, margin);

    const double bar = pilots[static_cast<std::size_t>(attached)] + margin;
    std::vector<int> eligible;
    for (int s = 0; s < n; ++s) {
      if (s != attached && pilots[static_cast<std::size_t>(s)] > bar) {
        eligible.push_back(s);
      }
    }
    if (eligible.empty()) {
      EXPECT_EQ(chosen, attached);
    } else {
      const int strongest = *std::max_element(
          eligible.begin(), eligible.end(), [&](int a, int b) {
            return pilots[static_cast<std::size_t>(a)] <
                   pilots[static_cast<std::size_t>(b)];
          });
      EXPECT_EQ(chosen, strongest);
    }
  }
}

TEST(HysteresisRule, Validation) {
  EXPECT_THROW(strongest_with_hysteresis(pilots({}), 0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(strongest_with_hysteresis(pilots({1.0}), 1, 1.0),
               std::invalid_argument);
  EXPECT_THROW(strongest_with_hysteresis(pilots({1.0}), -1, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace charisma::mac

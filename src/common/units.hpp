// Units and small strong-typed quantities used across the library.
//
// Simulation time is carried as double seconds (the de-facto DES idiom);
// this header centralizes the conversion helpers so magic constants such as
// "2.5e-3" never appear inline in protocol code.
#pragma once

#include <cstdint>

namespace charisma::common {

/// Simulation time in seconds.
using Time = double;

/// Frequency in hertz.
using Hertz = double;

/// Speed in metres per second.
using Speed = double;

inline constexpr Speed km_per_hour(double kmh) { return kmh / 3.6; }

/// Speed of light, m/s.
inline constexpr double kSpeedOfLight = 2.99792458e8;

/// Frame index. 64-bit so multi-hour simulations cannot wrap.
using FrameIndex = std::int64_t;

/// Identifier of a mobile device. Dense, assigned from 0.
using UserId = std::int32_t;
inline constexpr UserId kNoUser = -1;

}  // namespace charisma::common

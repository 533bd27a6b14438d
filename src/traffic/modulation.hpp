// Spatio-temporal traffic modulation for flash-crowd and diurnal-tide
// scenarios. A pure function of (config, time, position) returns the rate
// scale CellularWorld applies to each user's sources every decision epoch —
// there is no state and no RNG here, so the modulation cannot disturb any
// draw sequence and the parallel world's determinism guarantee is
// untouched. kind = kNone short-circuits to 1 (callers skip the
// set_rate_scale calls entirely, keeping legacy runs bit-identical).
#pragma once

#include <cmath>
#include <string>

#include "common/units.hpp"

namespace charisma::traffic {

struct TrafficModulationConfig {
  enum class Kind { kNone, kFlashCrowd, kDiurnal };
  Kind kind = Kind::kNone;

  // kFlashCrowd: an event (stadium, incident) concentrates traffic around
  // `epicenter` during [start, end): users within `radius_m` generate at
  // `rate_multiplier` times their nominal intensity.
  double epicenter_x_m = 0.0;
  double epicenter_y_m = 0.0;
  double radius_m = 500.0;
  double rate_multiplier = 5.0;
  common::Time start = 0.0;
  common::Time end = 0.0;

  // kDiurnal: standing spatial tide — intensity swings by ±amplitude on a
  // `period_s` cycle, with the phase advancing across the field over
  // `wavelength_m` (opposite ends of the field peak in antiphase, moving
  // load between cells like a morning/evening commute).
  double amplitude = 0.5;
  double period_s = 60.0;
  double wavelength_m = 2000.0;

  bool valid() const {
    switch (kind) {
      case Kind::kNone:
        return true;
      case Kind::kFlashCrowd:
        return std::isfinite(epicenter_x_m) && std::isfinite(epicenter_y_m) &&
               radius_m > 0.0 && rate_multiplier > 0.0 && end >= start;
      case Kind::kDiurnal:
        return amplitude >= 0.0 && amplitude < 1.0 && period_s > 0.0 &&
               wavelength_m > 0.0;
    }
    return false;
  }
};

/// The traffic-intensity scale (> 0) in force at time `t` for a user at
/// (x, y). Exactly 1.0 for kNone.
double rate_scale(const TrafficModulationConfig& cfg, common::Time t,
                  double x, double y);

/// valid()'s verbose twin for config parse layers: throws
/// std::invalid_argument naming `knob` (the CLI key, e.g. "flash" or
/// "diurnal") and the offending field. The positivity constraints are what
/// keep every rate_scale() result > 0 — a non-positive scale would turn
/// the sources' divided exponential means into inf/NaN toggle times, which
/// VoiceSource/DataSource::set_rate_scale also reject as a last line of
/// defense.
void validate_or_throw(const TrafficModulationConfig& cfg,
                       const std::string& knob);

}  // namespace charisma::traffic

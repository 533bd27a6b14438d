#include "traffic/modulation.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace charisma::traffic {

double rate_scale(const TrafficModulationConfig& cfg, common::Time t,
                  double x, double y) {
  switch (cfg.kind) {
    case TrafficModulationConfig::Kind::kNone:
      return 1.0;
    case TrafficModulationConfig::Kind::kFlashCrowd: {
      if (t < cfg.start || t >= cfg.end) return 1.0;
      const double dx = x - cfg.epicenter_x_m;
      const double dy = y - cfg.epicenter_y_m;
      return dx * dx + dy * dy <= cfg.radius_m * cfg.radius_m
                 ? cfg.rate_multiplier
                 : 1.0;
    }
    case TrafficModulationConfig::Kind::kDiurnal: {
      const double phase =
          2.0 * std::numbers::pi * t / cfg.period_s +
          std::numbers::pi * x / cfg.wavelength_m;
      return 1.0 + cfg.amplitude * std::sin(phase);
    }
  }
  return 1.0;
}

void validate_or_throw(const TrafficModulationConfig& cfg,
                       const std::string& knob) {
  const auto fail = [&knob](const std::string& what) {
    throw std::invalid_argument(knob + "=: " + what);
  };
  switch (cfg.kind) {
    case TrafficModulationConfig::Kind::kNone:
      return;
    case TrafficModulationConfig::Kind::kFlashCrowd:
      if (!std::isfinite(cfg.epicenter_x_m) ||
          !std::isfinite(cfg.epicenter_y_m)) {
        fail("epicenter coordinates must be finite");
      }
      if (!(cfg.radius_m > 0.0)) fail("radius must be > 0");
      if (!(cfg.rate_multiplier > 0.0)) {
        fail("multiplier must be > 0 (a non-positive rate scale would make "
             "the sources' toggle times inf/NaN)");
      }
      if (!(cfg.end >= cfg.start)) fail("end must be >= start");
      return;
    case TrafficModulationConfig::Kind::kDiurnal:
      if (!(cfg.amplitude >= 0.0 && cfg.amplitude < 1.0)) {
        fail("amplitude must be in [0, 1) so the trough rate scale stays "
             "positive");
      }
      if (!(cfg.period_s > 0.0)) fail("period_s must be > 0");
      if (!(cfg.wavelength_m > 0.0)) fail("wavelength_m must be > 0");
      return;
  }
  fail("unknown modulation kind");
}

}  // namespace charisma::traffic

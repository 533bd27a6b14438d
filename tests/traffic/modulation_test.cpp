// rate_scale() behavior pins plus the validate_or_throw contract the
// charisma_sim flash=/diurnal= parse layer relies on: every rejection
// names the CLI knob and the offending field, so a bad value fails at
// startup with an actionable message instead of freezing a source's
// toggle chain at inf/NaN mid-run.
#include "traffic/modulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace charisma::traffic {
namespace {

TrafficModulationConfig flash_config() {
  TrafficModulationConfig cfg;
  cfg.kind = TrafficModulationConfig::Kind::kFlashCrowd;
  cfg.epicenter_x_m = 100.0;
  cfg.epicenter_y_m = 200.0;
  cfg.radius_m = 50.0;
  cfg.rate_multiplier = 4.0;
  cfg.start = 1.0;
  cfg.end = 2.0;
  return cfg;
}

TrafficModulationConfig diurnal_config() {
  TrafficModulationConfig cfg;
  cfg.kind = TrafficModulationConfig::Kind::kDiurnal;
  cfg.amplitude = 0.5;
  cfg.period_s = 60.0;
  cfg.wavelength_m = 2000.0;
  return cfg;
}

/// The invalid_argument message produced by `fn`, or "" if it didn't throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TrafficModulation, NoneIsAlwaysUnity) {
  TrafficModulationConfig cfg;
  EXPECT_EQ(rate_scale(cfg, 0.0, 0.0, 0.0), 1.0);
  EXPECT_EQ(rate_scale(cfg, 1e6, -500.0, 42.0), 1.0);
  EXPECT_NO_THROW(validate_or_throw(cfg, "flash"));
}

TEST(TrafficModulation, FlashCrowdScalesInsideDiskDuringWindow) {
  const auto cfg = flash_config();
  // Inside the disk, inside [start, end): scaled.
  EXPECT_EQ(rate_scale(cfg, 1.5, 100.0, 200.0), 4.0);
  EXPECT_EQ(rate_scale(cfg, 1.5, 100.0 + 49.9, 200.0), 4.0);
  // Outside the disk or outside the window: nominal.
  EXPECT_EQ(rate_scale(cfg, 1.5, 100.0 + 50.1, 200.0), 1.0);
  EXPECT_EQ(rate_scale(cfg, 0.5, 100.0, 200.0), 1.0);   // before start
  EXPECT_EQ(rate_scale(cfg, 2.0, 100.0, 200.0), 1.0);   // end is exclusive
}

TEST(TrafficModulation, DiurnalSwingsWithinAmplitudeAndStaysPositive) {
  const auto cfg = diurnal_config();
  double lo = 1e9, hi = -1e9;
  for (double t = 0.0; t < 2.0 * cfg.period_s; t += 0.25) {
    for (double x : {0.0, 500.0, 1000.0, 2000.0}) {
      const double s = rate_scale(cfg, t, x, 0.0);
      EXPECT_GT(s, 0.0);  // the positivity contract behind [0, 1) amplitude
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  EXPECT_NEAR(lo, 1.0 - cfg.amplitude, 0.02);
  EXPECT_NEAR(hi, 1.0 + cfg.amplitude, 0.02);
}

TEST(TrafficModulation, ValidConfigsPassValidateOrThrow) {
  EXPECT_NO_THROW(validate_or_throw(flash_config(), "flash"));
  EXPECT_NO_THROW(validate_or_throw(diurnal_config(), "diurnal"));
}

TEST(TrafficModulation, FlashRejectionsNameTheKnobAndField) {
  auto cfg = flash_config();
  cfg.rate_multiplier = 0.0;
  std::string msg =
      thrown_message([&] { validate_or_throw(cfg, "flash"); });
  EXPECT_NE(msg.find("flash"), std::string::npos) << msg;
  EXPECT_NE(msg.find("multiplier"), std::string::npos) << msg;

  cfg = flash_config();
  cfg.rate_multiplier = -2.0;
  EXPECT_THROW(validate_or_throw(cfg, "flash"), std::invalid_argument);

  cfg = flash_config();
  cfg.radius_m = 0.0;
  msg = thrown_message([&] { validate_or_throw(cfg, "flash"); });
  EXPECT_NE(msg.find("radius"), std::string::npos) << msg;

  cfg = flash_config();
  cfg.end = cfg.start - 0.5;
  msg = thrown_message([&] { validate_or_throw(cfg, "flash"); });
  EXPECT_NE(msg.find("end"), std::string::npos) << msg;

  // A NaN or infinite epicenter would make every distance test false.
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    cfg = flash_config();
    cfg.epicenter_y_m = bad;
    msg = thrown_message([&] { validate_or_throw(cfg, "flash"); });
    EXPECT_NE(msg.find("epicenter"), std::string::npos) << msg;
    EXPECT_FALSE(cfg.valid());
  }
}

TEST(TrafficModulation, DiurnalRejectionsNameTheKnobAndField) {
  auto cfg = diurnal_config();
  cfg.amplitude = 1.0;  // trough would hit exactly zero
  std::string msg =
      thrown_message([&] { validate_or_throw(cfg, "diurnal"); });
  EXPECT_NE(msg.find("diurnal"), std::string::npos) << msg;
  EXPECT_NE(msg.find("amplitude"), std::string::npos) << msg;

  cfg = diurnal_config();
  cfg.amplitude = -0.1;
  EXPECT_THROW(validate_or_throw(cfg, "diurnal"), std::invalid_argument);

  cfg = diurnal_config();
  cfg.period_s = 0.0;
  msg = thrown_message([&] { validate_or_throw(cfg, "diurnal"); });
  EXPECT_NE(msg.find("period"), std::string::npos) << msg;

  cfg = diurnal_config();
  cfg.wavelength_m = -100.0;
  msg = thrown_message([&] { validate_or_throw(cfg, "diurnal"); });
  EXPECT_NE(msg.find("wavelength"), std::string::npos) << msg;
}

TEST(TrafficModulation, ValidateAgreesWithValid) {
  // validate_or_throw is valid()'s verbose twin — they must never diverge
  // on the accept/reject decision.
  for (auto make : {flash_config, diurnal_config}) {
    auto cfg = make();
    EXPECT_TRUE(cfg.valid());
    EXPECT_NO_THROW(validate_or_throw(cfg, "k"));
  }
  auto cfg = flash_config();
  cfg.rate_multiplier = 0.0;
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW(validate_or_throw(cfg, "k"), std::invalid_argument);
  cfg = diurnal_config();
  cfg.amplitude = 2.0;
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW(validate_or_throw(cfg, "k"), std::invalid_argument);
}

}  // namespace
}  // namespace charisma::traffic

#include "common/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace charisma::common {
namespace {

TEST(Config, ParsesKeyValueArgs) {
  auto cfg = KeyValueConfig::from_args({"alpha=1.5", "name=test", "n=42"});
  EXPECT_EQ(cfg.size(), 3u);
  EXPECT_EQ(cfg.get_string("name").value(), "test");
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha").value(), 1.5);
  EXPECT_EQ(cfg.get_int("n").value(), 42);
}

TEST(Config, MalformedArgsThrow) {
  EXPECT_THROW(KeyValueConfig::from_args({"noequals"}), std::invalid_argument);
  EXPECT_THROW(KeyValueConfig::from_args({"=value"}), std::invalid_argument);
}

TEST(Config, LaterDuplicateWins) {
  auto cfg = KeyValueConfig::from_args({"k=1", "k=2"});
  EXPECT_EQ(cfg.get_int("k").value(), 2);
}

TEST(Config, MissingKeysReturnNullopt) {
  KeyValueConfig cfg;
  EXPECT_FALSE(cfg.get_string("missing").has_value());
  EXPECT_FALSE(cfg.get_double("missing").has_value());
  EXPECT_FALSE(cfg.get_int("missing").has_value());
  EXPECT_FALSE(cfg.get_bool("missing").has_value());
}

TEST(Config, Fallbacks) {
  KeyValueConfig cfg;
  cfg.set("present", "7");
  EXPECT_EQ(cfg.get_int_or("present", 1), 7);
  EXPECT_EQ(cfg.get_int_or("absent", 1), 1);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("absent", 2.5), 2.5);
  EXPECT_EQ(cfg.get_string_or("absent", "d"), "d");
  EXPECT_TRUE(cfg.get_bool_or("absent", true));
}

TEST(Config, BooleanSpellings) {
  KeyValueConfig cfg;
  for (const char* t : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
    cfg.set("b", t);
    EXPECT_TRUE(cfg.get_bool("b").value()) << t;
  }
  for (const char* f : {"0", "false", "no", "off", "FALSE"}) {
    cfg.set("b", f);
    EXPECT_FALSE(cfg.get_bool("b").value()) << f;
  }
}

TEST(Config, TypeErrorsThrow) {
  KeyValueConfig cfg;
  cfg.set("x", "notanumber");
  EXPECT_THROW(cfg.get_double("x"), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("x"), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("x"), std::invalid_argument);
  cfg.set("y", "12abc");
  EXPECT_THROW(cfg.get_int("y"), std::invalid_argument);
}

TEST(Config, NonFiniteDoublesThrowNamingTheKey) {
  KeyValueConfig cfg;
  for (const char* value : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    cfg.set("mean_snr_db", value);
    try {
      cfg.get_double("mean_snr_db");
      ADD_FAILURE() << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("value for 'mean_snr_db'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(cfg.get_double_or("mean_snr_db", 1.0), std::invalid_argument)
        << value;
  }
  cfg.set("mean_snr_db", "-1e300");
  EXPECT_DOUBLE_EQ(cfg.get_double("mean_snr_db").value(), -1e300);
}

TEST(Config, RejectUnknownPassesKnownKeys) {
  auto cfg = KeyValueConfig::from_args({"alpha=1", "beta=2"});
  EXPECT_NO_THROW(cfg.reject_unknown({"alpha", "beta", "gamma"}));
}

TEST(Config, RejectUnknownNamesTheOffendingKey) {
  auto cfg = KeyValueConfig::from_args({"alpha=1", "voice_user=80"});
  try {
    cfg.reject_unknown({"alpha", "voice_users"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must point at the typo, not just say "bad config".
    EXPECT_NE(std::string(e.what()).find("voice_user"), std::string::npos);
  }
}

TEST(Config, RejectUnknownOnEmptyConfigIsNoop) {
  KeyValueConfig cfg;
  EXPECT_NO_THROW(cfg.reject_unknown({}));
  EXPECT_NO_THROW(cfg.reject_unknown({"anything"}));
}

TEST(Config, CountAcceptsMagnitudeSuffixes) {
  KeyValueConfig cfg;
  cfg.set("users", "250k");
  EXPECT_EQ(cfg.get_count("users").value(), 250'000);
  cfg.set("users", "1M");
  EXPECT_EQ(cfg.get_count("users").value(), 1'000'000);
  cfg.set("users", "2.5k");
  EXPECT_EQ(cfg.get_count("users").value(), 2'500);
  cfg.set("users", "3K");
  EXPECT_EQ(cfg.get_count("users").value(), 3'000);
  cfg.set("users", "0.25m");
  EXPECT_EQ(cfg.get_count("users").value(), 250'000);
  cfg.set("users", "750k");
  EXPECT_EQ(cfg.get_count("users").value(), 750'000);
  cfg.set("users", "80");  // plain integers unchanged
  EXPECT_EQ(cfg.get_count("users").value(), 80);
  EXPECT_EQ(cfg.get_count_or("absent", 42), 42);
  EXPECT_FALSE(cfg.get_count("absent").has_value());
}

TEST(Config, CountRejectsUnknownSuffixNamingTheKey) {
  KeyValueConfig cfg;
  cfg.set("voice_users", "5q");
  try {
    cfg.get_count("voice_users");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must point at the knob the bad value arrived under.
    EXPECT_NE(std::string(e.what()).find("voice_users"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5q"), std::string::npos);
  }
  for (const char* bad : {"1G", "k", "abc", "2.5kk", "1 M", "750x"}) {
    cfg.set("voice_users", bad);
    EXPECT_THROW(cfg.get_count("voice_users"), std::invalid_argument) << bad;
  }
  // A fractional count that does not land on an integer is an error, not a
  // silent rounding.
  cfg.set("voice_users", "1.0005k");
  EXPECT_THROW(cfg.get_count("voice_users"), std::invalid_argument);
}

TEST(Config, Contains) {
  KeyValueConfig cfg;
  cfg.set("k", "v");
  EXPECT_TRUE(cfg.contains("k"));
  EXPECT_FALSE(cfg.contains("z"));
}

}  // namespace
}  // namespace charisma::common

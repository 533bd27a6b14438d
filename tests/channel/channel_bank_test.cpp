#include "channel/channel_bank.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace charisma::channel {
namespace {

ChannelConfig test_config(double mean_snr_db = 16.0) {
  ChannelConfig cfg;
  cfg.mean_snr_db = mean_snr_db;
  cfg.shadow_sigma_db = 3.0;
  cfg.doppler_hz = 100.0;
  cfg.diversity_branches = 4;
  cfg.sample_interval = 2.5e-3;
  return cfg;
}

TEST(ChannelBank, MatchesOneRowBank) {
  // Per-user streams: a user advanced inside a populated bank must see
  // exactly the channel it would see in a bank of its own — results are
  // independent of population size.
  ChannelBank bank;
  bank.reserve(3);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    bank.add_user(test_config(), common::RngStream(s));
  }
  ChannelBank solo;
  solo.add_user(test_config(), common::RngStream(2));
  for (int i = 1; i <= 200; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    bank.advance_all_to(t);
    solo.advance_user_to(0, t);
    ASSERT_DOUBLE_EQ(bank.snr_linear(1), solo.snr_linear(0));
    ASSERT_DOUBLE_EQ(bank.fading_power(1), solo.fading_power(0));
    ASSERT_DOUBLE_EQ(bank.shadow_db(1), solo.shadow_db(0));
  }
}

TEST(ChannelBank, BatchedAdvanceEqualsPerUserAdvance) {
  ChannelBank batched, individual;
  for (std::uint64_t s = 10; s < 18; ++s) {
    batched.add_user(test_config(), common::RngStream(s));
    individual.add_user(test_config(), common::RngStream(s));
  }
  for (int i = 1; i <= 100; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    batched.advance_all_to(t);
    for (std::size_t u = 0; u < individual.size(); ++u) {
      individual.advance_user_to(u, t);
    }
    for (std::size_t u = 0; u < batched.size(); ++u) {
      ASSERT_DOUBLE_EQ(batched.snr_linear(u), individual.snr_linear(u));
    }
  }
}

TEST(ChannelBank, StationaryMomentsUnderStridedAdvance) {
  // Advancing frame-by-frame and in large strides must both preserve the
  // stationary fading marginal (the k-step jump is exact, not an
  // approximation): the average of L unit-mean branch powers is
  // Gamma(L, 1/L) — mean 1, variance 1/L, tail P(X > x) = Q(L, L x).
  const int branches = test_config().diversity_branches;
  for (int stride : {1, 7, 64}) {
    ChannelBank bank;
    bank.add_user(test_config(),
                  common::RngStream(100 + static_cast<std::uint64_t>(stride)));
    double sum = 0.0, sum2 = 0.0;
    int above_two = 0;
    const int n = 60000;
    for (int i = 1; i <= n; ++i) {
      bank.advance_user_to(0, static_cast<double>(i) * stride * 2.5e-3);
      const double p = bank.fading_power(0);
      sum += p;
      sum2 += p * p;
      if (p > 2.0) ++above_two;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 1.0, 0.05) << "stride " << stride;
    EXPECT_NEAR(sum2 / n - mean * mean, 1.0 / branches, 0.02)
        << "stride " << stride;
    EXPECT_NEAR(static_cast<double>(above_two) / n,
                common::gamma_upper_regularized(branches, 2.0 * branches),
                0.006)
        << "stride " << stride;
  }
}

TEST(ChannelBank, LagCorrelationUnderStridedAdvance) {
  // One branch, so fading_power is |h|^2 of a single AR(1) branch: its
  // lag-k autocorrelation is rho^(2k); shadow_db's is exp(-k dt / tau).
  // Doppler and tau put both at exp(-1) for k = 8 grid steps, sampled
  // every step (lag 8) and every 8 steps (lag 1, one jump per sample).
  auto cfg = test_config();
  cfg.diversity_branches = 1;
  const int k = 8;
  cfg.doppler_hz = 1.0 / (2.0 * k * cfg.sample_interval);  // rho^(2k) = 1/e
  cfg.shadow_tau = k * cfg.sample_interval;
  const auto lag_correlation = [](const std::vector<double>& x,
                                  std::size_t lag) {
    double mean = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(x.size());
    double c0 = 0.0, ck = 0.0;
    for (std::size_t i = 0; i + lag < x.size(); ++i) {
      c0 += (x[i] - mean) * (x[i] - mean);
      ck += (x[i] - mean) * (x[i + lag] - mean);
    }
    return ck / c0;
  };
  for (int stride : {1, k}) {
    ChannelBank bank;
    bank.add_user(cfg, common::RngStream(41));
    const std::size_t n = 200000;
    std::vector<double> power(n), shadow(n);
    for (std::size_t i = 0; i < n; ++i) {
      bank.advance_user_to(
          0, static_cast<double>(i + 1) * stride * cfg.sample_interval);
      power[i] = bank.fading_power(0);
      shadow[i] = bank.shadow_db(0);
    }
    const auto lag = static_cast<std::size_t>(k / stride);
    EXPECT_NEAR(lag_correlation(power, lag), std::exp(-1.0), 0.03)
        << "stride " << stride;
    EXPECT_NEAR(lag_correlation(shadow, lag), std::exp(-1.0), 0.03)
        << "stride " << stride;
  }
}

TEST(ChannelBank, ShadowingStationarySigmaUnderStridedAdvance) {
  ChannelBank bank;
  bank.add_user(test_config(), common::RngStream(7));
  double sum = 0.0, sum2 = 0.0;
  const int n = 40000;
  // 0.25 s strides: well past the 1 s shadowing tau would need many steps
  // in the legacy walk; here each is one O(1) jump.
  for (int i = 1; i <= n; ++i) {
    bank.advance_user_to(0, static_cast<double>(i) * 0.25);
    const double s = bank.shadow_db(0);
    sum += s;
    sum2 += s * s;
    // The shadow dB value enters the SNR as the linear factor 10^(s/10).
    ASSERT_NEAR(bank.snr_linear(0),
                common::from_db(16.0 + s) * bank.fading_power(0),
                1e-12 * bank.snr_linear(0));
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.15);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 3.0, 0.15);
}

TEST(ChannelBank, MixedConfigsKeepPerUserBudgets) {
  ChannelBank bank;
  auto low = test_config(10.0);
  low.shadow_sigma_db = 0.0;  // isolate the link-budget ratio
  bank.add_user(low, common::RngStream(1));
  auto high = test_config(20.0);
  high.shadow_sigma_db = 0.0;
  bank.add_user(high, common::RngStream(2));
  bank.advance_all_to(1.0);
  EXPECT_DOUBLE_EQ(bank.config(0).mean_snr_db, 10.0);
  EXPECT_DOUBLE_EQ(bank.config(1).mean_snr_db, 20.0);
  // SNR must scale with the per-user link budget on average; smoke-check
  // the ratio of long-run means.
  double sum0 = 0.0, sum1 = 0.0;
  const int n = 50000;
  for (int i = 1; i <= n; ++i) {
    bank.advance_all_to(1.0 + static_cast<double>(i) * 2.5e-3);
    sum0 += bank.snr_linear(0);
    sum1 += bank.snr_linear(1);
  }
  EXPECT_NEAR(sum1 / sum0, common::from_db(10.0), 0.5);
  EXPECT_EQ(bank.shadow_db(0), 0.0);  // sigma 0: no shadowing, ever
}

TEST(ChannelBank, TimeMustNotGoBackwards) {
  ChannelBank bank;
  bank.add_user(test_config(), common::RngStream(3));
  bank.advance_user_to(0, 1.0);
  EXPECT_THROW(bank.advance_user_to(0, 0.5), std::logic_error);
  EXPECT_THROW(bank.advance_all_to(0.5), std::logic_error);
}

TEST(ChannelBank, RepeatAdvanceIsIdempotent) {
  ChannelBank bank;
  bank.add_user(test_config(), common::RngStream(4));
  bank.advance_user_to(0, 0.1);
  const double snr = bank.snr_linear(0);
  bank.advance_user_to(0, 0.1);
  bank.advance_all_to(0.1 + 1e-3);  // within the same 2.5 ms grid step
  EXPECT_DOUBLE_EQ(bank.snr_linear(0), snr);
}

TEST(ChannelBank, SetMeanSnrRescalesWithoutDisturbingState) {
  // The mobility fast path: re-anchoring the link budget must not touch
  // the fading/shadowing state or consume any RNG draw — a bank whose mean
  // is edited mid-run stays draw-for-draw identical to an untouched twin.
  ChannelBank moved, still;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    moved.add_user(test_config(), common::RngStream(s));
    still.add_user(test_config(), common::RngStream(s));
  }
  for (int i = 1; i <= 100; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    moved.advance_all_to(t);
    still.advance_all_to(t);
    // Wiggle every user's mean each step, then restore user 0's.
    std::vector<double> db(moved.size(),
                           16.0 + static_cast<double>(i % 7) - 3.0);
    db[0] = 16.0;
    moved.set_mean_snr_db_all(db);
    for (std::size_t u = 0; u < moved.size(); ++u) {
      ASSERT_DOUBLE_EQ(moved.fading_power(u), still.fading_power(u));
      ASSERT_DOUBLE_EQ(moved.shadow_db(u), still.shadow_db(u));
    }
    // User 0's mean was restored, so its SNR matches the untouched twin.
    ASSERT_DOUBLE_EQ(moved.snr_linear(0), still.snr_linear(0));
  }
}

TEST(ChannelBank, SetMeanSnrMovesTheMean) {
  ChannelBank bank;
  bank.add_user(test_config(16.0), common::RngStream(1));
  const double before = bank.snr_linear(0);
  const std::vector<double> db = {26.0};
  bank.set_mean_snr_db_all(db);
  EXPECT_DOUBLE_EQ(bank.mean_snr_db(0), 26.0);
  EXPECT_DOUBLE_EQ(bank.config(0).mean_snr_db, 26.0);
  EXPECT_NEAR(bank.snr_linear(0) / before, 10.0, 1e-9);
  const std::vector<double> too_short;
  EXPECT_THROW(bank.set_mean_snr_db_all(too_short), std::invalid_argument);
}

TEST(ChannelBank, SnrDbAllMatchesScalarReads) {
  // The bulk pilot plane computes the same quantity as snr_db() in the dB
  // domain (no exp/log10 round trip); values agree to rounding.
  ChannelBank bank;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    bank.add_user(test_config(10.0 + static_cast<double>(s)),
                  common::RngStream(s));
  }
  bank.advance_all_to(0.25);
  std::vector<double> bulk(bank.size());
  bank.snr_db_all(bulk);
  for (std::size_t u = 0; u < bank.size(); ++u) {
    EXPECT_NEAR(bulk[u], bank.snr_db(u), 1e-9) << "user " << u;
  }
  std::vector<double> too_short(bank.size() - 1);
  EXPECT_THROW(bank.snr_db_all(too_short), std::invalid_argument);
}

TEST(ChannelBank, SetInterferenceLeavesStateAndDrawsUntouched) {
  // The interference plane is the same kind of no-RNG fast path as
  // set_mean_snr_db_all: feeding a fresh penalty plane every step must
  // not touch the fading/shadowing state or consume a draw, and a user
  // whose penalty is restored to 0 reads bit-identically to a bank that
  // never saw interference.
  ChannelBank loaded, clean;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    loaded.add_user(test_config(), common::RngStream(s));
    clean.add_user(test_config(), common::RngStream(s));
  }
  std::vector<double> penalty(loaded.size());
  for (int i = 1; i <= 100; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    loaded.advance_all_to(t);
    clean.advance_all_to(t);
    for (std::size_t u = 0; u < penalty.size(); ++u) {
      penalty[u] = static_cast<double>((i + static_cast<int>(u)) % 5);
    }
    penalty[0] = 0.0;
    loaded.set_interference_db_all(penalty);
    for (std::size_t u = 0; u < loaded.size(); ++u) {
      ASSERT_DOUBLE_EQ(loaded.fading_power(u), clean.fading_power(u));
      ASSERT_DOUBLE_EQ(loaded.shadow_db(u), clean.shadow_db(u));
      ASSERT_DOUBLE_EQ(loaded.interference_db(u), penalty[u]);
    }
    // User 0 carries no penalty: its SINR is the untouched twin's SNR,
    // bit for bit.
    ASSERT_DOUBLE_EQ(loaded.snr_linear(0), clean.snr_linear(0));
    ASSERT_DOUBLE_EQ(loaded.snr_db(0), clean.snr_db(0));
  }
  // After 100 steps of penalty churn the innovation streams are still
  // draw-for-draw aligned.
  loaded.advance_all_to(0.5);
  clean.advance_all_to(0.5);
  for (std::size_t u = 0; u < loaded.size(); ++u) {
    ASSERT_DOUBLE_EQ(loaded.fading_power(u), clean.fading_power(u));
    ASSERT_DOUBLE_EQ(loaded.shadow_db(u), clean.shadow_db(u));
  }
}

TEST(ChannelBank, InterferenceLowersSnrByThePenalty) {
  ChannelBank bank;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    bank.add_user(test_config(), common::RngStream(s));
  }
  bank.advance_all_to(0.25);
  std::vector<double> baseline(bank.size());
  bank.snr_db_all(baseline);
  double previous_snr = bank.snr_db(1);
  for (double db : {1.5, 4.0, 9.0}) {
    std::vector<double> penalty(bank.size(), db);
    bank.set_interference_db_all(penalty);
    // SINR == SNR - penalty in dB, for both the bulk plane and the
    // scalar read; monotone: a larger penalty always reads lower.
    std::vector<double> sinr(bank.size());
    bank.snr_db_all(sinr);
    for (std::size_t u = 0; u < bank.size(); ++u) {
      EXPECT_DOUBLE_EQ(sinr[u], baseline[u] - db);
      EXPECT_NEAR(bank.snr_db(u), baseline[u] - db, 1e-9);
    }
    EXPECT_LT(bank.snr_db(1), previous_snr);
    previous_snr = bank.snr_db(1);
  }
  // Restoring a zero plane restores the interference-free reads exactly.
  std::vector<double> zero(bank.size(), 0.0);
  bank.set_interference_db_all(zero);
  std::vector<double> restored(bank.size());
  bank.snr_db_all(restored);
  for (std::size_t u = 0; u < bank.size(); ++u) {
    EXPECT_EQ(restored[u], baseline[u]);  // bitwise
    EXPECT_EQ(bank.interference_db(u), 0.0);
  }
  std::vector<double> too_short(bank.size() - 1);
  EXPECT_THROW(bank.set_interference_db_all(too_short),
               std::invalid_argument);
}

TEST(ChannelBank, InvalidConfigsThrow) {
  ChannelBank bank;
  auto bad_branches = test_config();
  bad_branches.diversity_branches = 0;
  EXPECT_THROW(bank.add_user(bad_branches, common::RngStream(1)),
               std::invalid_argument);
  auto bad_sigma = test_config();
  bad_sigma.shadow_sigma_db = -1.0;
  EXPECT_THROW(bank.add_user(bad_sigma, common::RngStream(1)),
               std::invalid_argument);
  auto bad_tau = test_config();
  bad_tau.shadow_tau = 0.0;
  EXPECT_THROW(bank.add_user(bad_tau, common::RngStream(1)),
               std::invalid_argument);
  auto bad_dt = test_config();
  bad_dt.sample_interval = 0.0;
  EXPECT_THROW(bank.add_user(bad_dt, common::RngStream(1)),
               std::invalid_argument);
  auto bad_doppler = test_config();
  bad_doppler.doppler_hz = 0.0;
  EXPECT_THROW(bank.add_user(bad_doppler, common::RngStream(1)),
               std::invalid_argument);
  EXPECT_EQ(bank.size(), 0u);  // a rejected row leaves no trace
}

TEST(ChannelBank, RowsShareOneEnvironment) {
  // The first row fixes the bank's radio environment: a later row may bring
  // its own link-budget mean, and nothing else. A rejected row leaves the
  // bank as it was, free slot included.
  ChannelBank bank;
  bank.add_user(test_config(), common::RngStream(1));
  bank.add_user(test_config(), common::RngStream(2));
  bank.release_user(0);
  const auto with = [](auto edit) {
    auto cfg = test_config();
    edit(cfg);
    return cfg;
  };
  const ChannelConfig foreign[] = {
      with([](ChannelConfig& c) { c.doppler_hz = 200.0; }),
      with([](ChannelConfig& c) { c.shadow_sigma_db = 6.0; }),
      with([](ChannelConfig& c) { c.shadow_tau = 2.0; }),
      with([](ChannelConfig& c) { c.diversity_branches = 2; }),
      with([](ChannelConfig& c) { c.sample_interval = 5e-3; }),
  };
  for (const ChannelConfig& cfg : foreign) {
    EXPECT_THROW(bank.add_user(cfg, common::RngStream(3)),
                 std::invalid_argument);
    EXPECT_EQ(bank.size(), 2u);
    EXPECT_TRUE(bank.vacant(0));
  }
  EXPECT_EQ(bank.add_user(test_config(26.0), common::RngStream(3)), 0u);
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank.config(0).mean_snr_db, 26.0);
  EXPECT_EQ(bank.config(0).doppler_hz, bank.config(1).doppler_hz);
}

TEST(ChannelBank, RecycledRowMatchesFreshRow) {
  // add_user reuses the last released slot before it appends. A recycled
  // row must be the row a fresh bank would add at the same clock with the
  // same stream: nothing of the slot's previous tenant survives.
  ChannelBank bank;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    bank.add_user(test_config(), common::RngStream(s));
  }
  bank.advance_all_to(0.05);
  bank.release_user(1);
  bank.release_user(3);
  bank.advance_all_to(0.1);
  EXPECT_EQ(bank.active_count(), 2u);
  EXPECT_EQ(bank.add_user(test_config(), common::RngStream(11)), 3u);
  EXPECT_FALSE(bank.vacant(3));
  EXPECT_TRUE(bank.vacant(1));
  EXPECT_EQ(bank.add_user(test_config(), common::RngStream(12)), 1u);
  EXPECT_FALSE(bank.vacant(1));
  EXPECT_EQ(bank.active_count(), 4u);
  EXPECT_EQ(bank.add_user(test_config(), common::RngStream(13)), 4u);
  EXPECT_EQ(bank.active_count(), 5u);
  EXPECT_EQ(bank.size(), 5u);
  bank.advance_all_to(0.2);
  const std::pair<std::size_t, std::uint64_t> recycled[] = {{3, 11},
                                                            {1, 12}};
  for (const auto& [slot, seed] : recycled) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    ChannelBank fresh;
    fresh.set_time(0.1);
    fresh.add_user(test_config(), common::RngStream(seed));
    fresh.advance_all_to(0.2);
    for (int b = 0; b < test_config().diversity_branches; ++b) {
      EXPECT_EQ(bank.fade_re(slot, b), fresh.fade_re(0, b)) << "branch " << b;
      EXPECT_EQ(bank.fade_im(slot, b), fresh.fade_im(0, b)) << "branch " << b;
    }
    EXPECT_EQ(bank.snr_linear(slot), fresh.snr_linear(0));  // exact
    EXPECT_EQ(bank.rng_cursor(slot), fresh.rng_cursor(0));
    EXPECT_EQ(bank.current_step(slot), fresh.current_step(0));
  }
}

TEST(ChannelBank, AllApisOnReleasedRowsMatchTwinWithoutReleases) {
  // A bank with free-list rows takes the sparse branch of every _all API
  // (writes and reads go through the active-slot list). Its active rows
  // must land exactly where a twin that released nothing lands, bitwise,
  // and its vacant out[] entries must keep whatever the caller put there.
  ChannelBank sparse, twin;
  constexpr std::size_t kUsers = 8;
  for (std::uint64_t s = 1; s <= kUsers; ++s) {
    sparse.add_user(test_config(), common::RngStream(s));
    twin.add_user(test_config(), common::RngStream(s));
  }
  sparse.release_user(2);
  sparse.release_user(5);
  for (int i = 1; i <= 50; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    sparse.advance_all_to(t);
    twin.advance_all_to(t);
  }
  std::vector<double> mean(kUsers), interf(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    mean[u] = 10.0 + static_cast<double>(u);
    interf[u] = 0.25 * static_cast<double>(u);
  }
  for (ChannelBank* bank : {&sparse, &twin}) {
    bank->set_mean_snr_db_all(mean);
    bank->set_interference_db_all(interf);
  }
  constexpr double kSentinel = -777.0;
  std::vector<double> sparse_out(kUsers, kSentinel);
  std::vector<double> twin_out(kUsers, kSentinel);
  sparse.snr_db_all(sparse_out);
  twin.snr_db_all(twin_out);
  for (std::size_t u = 0; u < kUsers; ++u) {
    SCOPED_TRACE("slot " + std::to_string(u));
    if (sparse.vacant(u)) {
      EXPECT_EQ(sparse_out[u], kSentinel);
      continue;
    }
    EXPECT_EQ(sparse_out[u], twin_out[u]);  // exact, not NEAR
    EXPECT_EQ(sparse.mean_snr_db(u), twin.mean_snr_db(u));
    EXPECT_EQ(sparse.interference_db(u), twin.interference_db(u));
    EXPECT_EQ(sparse.snr_linear(u), twin.snr_linear(u));
    EXPECT_EQ(sparse.snr_db(u), twin.snr_db(u));
  }
  EXPECT_TRUE(sparse.vacant(2));
  EXPECT_TRUE(sparse.vacant(5));
}

TEST(ChannelBankPinned, EagerRealization) {
  // The eager default's realization, pinned at unit level so an edit to the
  // jump kernel or its ziggurat draws cannot hide until a world golden
  // moves: a four-branch row at 50 km/h Doppler, a one-branch row, and a
  // four-branch row at 240 Hz, each on a one-row bank, after 1000 eager
  // frames.
  struct PinnedRow {
    double doppler_hz;
    int branches;
    double iq[4][2];
    double shadow_db;
    double fading_power;
    std::uint64_t rng_cursor;
  };
  const PinnedRow rows[] = {
      {100.0, 4,
       {{0x1.fb79c89c181f8p-6, 0x1.1e5028c134905p+0},
        {0x1.15d289eda5266p-1, -0x1.05b2d5d037708p+0},
        {-0x1.2da4fe6e68c8p-5, -0x1.27ef5eebb9b28p-3},
        {-0x1.ab70b9fbe9b17p-2, -0x1.1910d7069df3ap-1}},
       0x1.5eba34c818e13p+0, 0x1.8b672fb5e55b1p-1, 0x457aca5331af0e95ULL},
      {100.0, 1,
       {{-0x1.360ddc5979288p+0, -0x1.b7a64e9545be8p+0}},
       -0x1.eab308c5d56a8p+0, 0x1.1aa457fdb1c5ep+2, 0xe62dfacdefec8501ULL},
      {240.0, 4,
       {{-0x1.1fe9aaa41fe13p-1, 0x1.d3562b09d7858p-5},
        {-0x1.4b1edd63218d6p+0, 0x1.2d4765d816ab8p-1},
        {0x1.2d13ec2ef7f2fp+0, 0x1.7cebc2e97e28ap-1},
        {-0x1.54d2e6fd47c5ep-1, -0x1.3ce1b5c0d212cp-2}},
       -0x1.1296846c4338ep+2, 0x1.341d3c275ab76p+0, 0x10aab24a9b8aa3f9ULL},
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::int64_t jump_events = 0, jump_frames = 0;
  std::uint64_t seed = 1;
  for (const PinnedRow& row : rows) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChannelConfig cfg;
    cfg.doppler_hz = row.doppler_hz;
    cfg.diversity_branches = row.branches;
    ChannelBank bank;
    bank.add_user(cfg, common::RngStream(seed++));
    for (int f = 1; f <= 1000; ++f) {
      bank.advance_all_to(static_cast<double>(f) * 2.5e-3);
    }
    EXPECT_EQ(bank.current_step(0), 1000);
    for (int b = 0; b < row.branches; ++b) {
      EXPECT_EQ(bits(bank.fade_re(0, b)), bits(row.iq[b][0])) << "branch " << b;
      EXPECT_EQ(bits(bank.fade_im(0, b)), bits(row.iq[b][1])) << "branch " << b;
    }
    EXPECT_EQ(bits(bank.shadow_db(0)), bits(row.shadow_db));
    EXPECT_EQ(bits(bank.fading_power(0)), bits(row.fading_power));
    EXPECT_EQ(bank.rng_cursor(0), row.rng_cursor);
    jump_events += bank.lazy_stats().jump_events;
    jump_frames += bank.lazy_stats().jump_frames;
  }
  EXPECT_EQ(jump_events, 3000);
  EXPECT_EQ(jump_frames, 3000);
}

}  // namespace
}  // namespace charisma::channel

// The lazy-schedule contract of ChannelBank:
//
//  * k deferred clock moves + one materialization IS one k-jump — bitwise,
//    per diversity branch, RNG cursor included (the property that makes the
//    closed-form jump an *implementation detail* of the lazy schedule);
//  * the touch set is an optimization, not an obligation: scattered
//    on-read materialization equals one batched declaration, bitwise —
//    also when a batch mixes strides;
//  * the materialization counters account for every user-frame exactly.
#include "channel/channel_bank.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace charisma::channel {
namespace {

constexpr double kDt = 2.5e-3;

ChannelConfig test_config() {
  ChannelConfig cfg;
  cfg.mean_snr_db = 16.0;
  cfg.shadow_sigma_db = 3.0;
  cfg.doppler_hz = 100.0;
  cfg.diversity_branches = 4;
  cfg.sample_interval = kDt;
  return cfg;
}

ChannelBank make_bank(int users, std::uint64_t seed0) {
  ChannelBank bank;
  bank.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    bank.add_user(test_config(),
                  common::RngStream(seed0 + static_cast<std::uint64_t>(u)));
  }
  return bank;
}

// NOTE: fading_power/shadow_db/snr_linear are materializing reads, so
// comparing two banks is itself a (bitwise-neutral) touch — callers must
// compare users both banks have already materialized, or bulk-advance
// first, for the current_step assertion to be meaningful.
void expect_user_bitwise_equal(const ChannelBank& a, const ChannelBank& b,
                               std::size_t u) {
  SCOPED_TRACE("user " + std::to_string(u));
  ASSERT_EQ(a.current_step(u), b.current_step(u));
  for (int br = 0; br < a.config(u).diversity_branches; ++br) {
    SCOPED_TRACE("branch " + std::to_string(br));
    EXPECT_EQ(a.fade_re(u, br), b.fade_re(u, br));  // exact, not NEAR
    EXPECT_EQ(a.fade_im(u, br), b.fade_im(u, br));
  }
  EXPECT_EQ(a.fading_power(u), b.fading_power(u));
  EXPECT_EQ(a.shadow_db(u), b.shadow_db(u));
  EXPECT_EQ(a.snr_linear(u), b.snr_linear(u));
  EXPECT_EQ(a.rng_cursor(u), b.rng_cursor(u));
}

void expect_users_bitwise_equal(const ChannelBank& a, const ChannelBank& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    expect_user_bitwise_equal(a, b, u);
  }
}

TEST(LazyBank, DeferredClockPlusMaterializeEqualsOneJump) {
  // For every stride k in 1..257: k O(1) clock moves followed by the first
  // read must equal the single eager k-jump — the same closed-form step,
  // the same innovation draws, the same RNG cursor afterwards.
  for (int k = 1; k <= 257; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    auto lazy = make_bank(3, 40);
    auto eager = make_bank(3, 40);
    for (int i = 1; i <= k; ++i) {
      lazy.set_time(static_cast<double>(i) * kDt);
    }
    // First read materializes: one jump of stride k.
    ASSERT_GT(lazy.fading_power(1), 0.0);
    eager.advance_user_to(1, static_cast<double>(k) * kDt);

    ASSERT_EQ(lazy.current_step(1), static_cast<std::int64_t>(k));
    for (int br = 0; br < 4; ++br) {
      ASSERT_EQ(lazy.fade_re(1, br), eager.fade_re(1, br)) << "branch " << br;
      ASSERT_EQ(lazy.fade_im(1, br), eager.fade_im(1, br)) << "branch " << br;
    }
    ASSERT_EQ(lazy.fading_power(1), eager.fading_power(1));
    ASSERT_EQ(lazy.shadow_db(1), eager.shadow_db(1));
    ASSERT_EQ(lazy.snr_linear(1), eager.snr_linear(1));
    ASSERT_EQ(lazy.rng_cursor(1), eager.rng_cursor(1));
    // Untouched neighbours were never materialized by the per-user read.
    ASSERT_EQ(lazy.current_step(0), 0);
    ASSERT_EQ(lazy.current_step(2), 0);
  }
}

TEST(LazyBank, BulkAdvanceEqualsLazyMaterializeAll) {
  // advance_all_to is already one k-jump per user, so "clock move + full
  // materialization" and the eager bulk call are the same operation — the
  // one place lazy and eager schedules coincide bitwise.
  auto lazy = make_bank(6, 90);
  auto eager = make_bank(6, 90);
  for (double t : {5 * kDt, 6 * kDt, 70 * kDt}) {
    lazy.set_time(t);
    lazy.materialize_all();
    eager.advance_all_to(t);
    expect_users_bitwise_equal(lazy, eager);
  }
}

/// Drives two identical banks on the lazy schedule over `frames` frames.
/// Each frame, touch(f, ids) names the read set: `batched` declares it up
/// front, `on_read` only moves its clock and reads those users one by one,
/// in reverse order; the touched users are compared as they go. Every
/// `settle_every`-th frame instead settles the whole population —
/// `batched` in one bulk pass over the accumulated heterogeneous strides,
/// `on_read` by reading each user — and compares everyone.
template <typename TouchFn>
void expect_on_read_matches_batched(ChannelBank& on_read,
                                    ChannelBank& batched, int frames,
                                    int settle_every, TouchFn touch) {
  std::vector<std::uint32_t> ids;
  for (int f = 1; f <= frames; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const double t = static_cast<double>(f) * kDt;
    if (f % settle_every == 0) {
      batched.advance_all_to(t);
      on_read.set_time(t);
      for (std::size_t u = 0; u < on_read.size(); ++u) {
        ASSERT_GT(on_read.snr_linear(u), 0.0);
      }
      expect_users_bitwise_equal(on_read, batched);
      continue;
    }
    ids.clear();
    touch(f, ids);
    batched.set_time(t);
    batched.materialize_users(ids);
    on_read.set_time(t);
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      ASSERT_GT(on_read.snr_linear(static_cast<std::size_t>(*it)), 0.0);
    }
    // Only touched users are compared mid-stream: lazy reads materialize,
    // so comparing an untouched user would itself advance the banks.
    for (const std::uint32_t slot : ids) {
      expect_user_bitwise_equal(on_read, batched, slot);
    }
  }
}

TEST(LazyBank, OnReadMatchesBatchedTouch) {
  // Declaring a frame's read set up front is an optimization only:
  // scattered per-read materialization (here in reverse order, mid-frame)
  // must land on exactly the same state and RNG cursors.
  {
    SCOPED_TRACE("uniform population, every third user per frame");
    const int n = 12;
    auto on_read = make_bank(n, 300);
    auto batched = make_bank(n, 300);
    expect_on_read_matches_batched(
        on_read, batched, 25, 25,
        [n](int f, std::vector<std::uint32_t>& ids) {
          for (int u = f % 3; u < n; u += 3) {
            ids.push_back(static_cast<std::uint32_t>(u));
          }
        });
  }
  {
    // Rotating windows of varying length: users accrue different strides,
    // so the batch loop must re-key its coefficient memo at every stride
    // change — which the per-user read path never memoizes.
    SCOPED_TRACE("rotating variable-length windows");
    const int n = 23;
    auto on_read = make_bank(n, 7);
    auto batched = make_bank(n, 7);
    expect_on_read_matches_batched(
        on_read, batched, 60, 10,
        [n](int f, std::vector<std::uint32_t>& ids) {
          const int len = 1 + (f % 7);
          for (int i = 0; i < len; ++i) {
            ids.push_back(static_cast<std::uint32_t>((f + i * 3) % n));
          }
        });
  }
}

TEST(LazyBank, CounterAccounting) {
  // 8 users, 10 frames: user 0 touched every frame, the rest settled once
  // at the end. Every user-frame of evolution must be accounted: frames =
  // 8 * 10 = 80; events = 10 (user 0) + 7 (one deferred jump each) = 17.
  auto bank = make_bank(8, 500);
  const std::uint32_t zero[] = {0};
  for (int f = 1; f <= 9; ++f) {
    bank.set_time(static_cast<double>(f) * kDt);
    bank.materialize_users(zero);
  }
  bank.advance_all_to(10 * kDt);
  const auto stats = bank.lazy_stats();
  EXPECT_EQ(stats.jump_frames, 80);
  EXPECT_EQ(stats.jump_events, 17);

  // Eager banks report stride exactly 1: events == frames.
  auto eager = make_bank(8, 500);
  for (int f = 1; f <= 10; ++f) {
    eager.advance_all_to(static_cast<double>(f) * kDt);
  }
  const auto eager_stats = eager.lazy_stats();
  EXPECT_EQ(eager_stats.jump_events, 80);
  EXPECT_EQ(eager_stats.jump_frames, 80);
}

// The message of the std::logic_error `fn` throws ("" if it throws none).
template <typename Fn>
std::string logic_error_text(Fn fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(LazyBank, GuardsAndErrors) {
  auto bank = make_bank(4, 800);
  bank.set_time(5 * kDt);
  EXPECT_THROW(bank.set_time(4 * kDt), std::logic_error);
  const std::uint32_t bogus[] = {99};
  EXPECT_THROW(bank.materialize_users(bogus), std::out_of_range);
  // Duplicates in a touch set are fine (second materialization no-ops).
  const std::uint32_t dupes[] = {0, 0, 1};
  EXPECT_NO_THROW(bank.materialize_users(dupes));

  // A released row is vacant: touching it throws before any row advances,
  // draws or counts toward the accounting (release_user's contract).
  auto sparse = make_bank(3, 1000);
  sparse.release_user(1);
  sparse.set_time(10 * kDt);
  const std::uint64_t cursor = sparse.rng_cursor(1);
  const std::uint32_t released[] = {1};
  const std::uint32_t mixed[] = {0, 1};
  EXPECT_EQ(logic_error_text([&] { sparse.materialize_users(released); }),
            "ChannelBank::materialize_users: vacant slot");
  EXPECT_EQ(logic_error_text([&] { sparse.materialize_users(mixed); }),
            "ChannelBank::materialize_users: vacant slot");
  EXPECT_EQ(sparse.lazy_stats().jump_events, 0);
  EXPECT_EQ(sparse.rng_cursor(1), cursor);
  EXPECT_EQ(sparse.current_step(0), 0);
}

}  // namespace
}  // namespace charisma::channel

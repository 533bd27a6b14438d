#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

namespace charisma::common {
namespace {

TEST(RngSeed, SameInputsSameSeed) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
}

TEST(RngSeed, DifferentStreamsDiffer) {
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

TEST(RngStream, Deterministic) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStream, DifferentSeedsDiverge) {
  RngStream a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStream, UniformBounds) {
  RngStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformRangeMean) {
  RngStream rng(7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(2.0, 6.0);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngStream, UniformIntCoversRange) {
  RngStream rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(5))];
  for (int c : counts) EXPECT_GT(c, 800);
  EXPECT_THROW(rng.uniform_int(0), std::domain_error);
}

TEST(RngStream, BernoulliEdges) {
  RngStream rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngStream, BernoulliRate) {
  RngStream rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngStream, ExponentialMoments) {
  RngStream rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(1.35);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.35, 0.02);
  EXPECT_NEAR(var, 1.35 * 1.35, 0.08);
  EXPECT_THROW(rng.exponential(0.0), std::domain_error);
}

TEST(RngStream, NormalMoments) {
  RngStream rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 2.0, 0.03);
}

// ---- Seed-pinned regression sequences ----
// The distribution layer is implemented in-house precisely so these exact
// sequences cannot change under a stdlib upgrade. If an edit to rng.cpp is
// *meant* to change results, regenerate these constants and say so in the
// commit — a silent change here invalidates every recorded benchmark.

TEST(RngStreamPinned, UniformSequence) {
  RngStream rng(12345);
  const double expected[] = {
      0.35762972288842587, 0.40044261704406114, 0.68938331700276845,
      0.55973557064111557, 0.57445129399171091, 0.2076905268617546,
  };
  for (double e : expected) EXPECT_DOUBLE_EQ(rng.uniform(), e);
}

TEST(RngStreamPinned, NormalSequence) {
  RngStream rng(12345);
  const double expected[] = {
      -1.162514705917397,   0.83968672813474454, -0.8024637068257271,
      -0.31617660920967344, 0.27662613610176873, 1.0159517267301623,
  };
  // Box-Muller goes through libm (log/sqrt/sin/cos), so allow a few ulp of
  // cross-platform slack while still pinning the realization.
  for (double e : expected) EXPECT_NEAR(rng.normal(), e, 1e-12);
}

TEST(RngStreamPinned, UniformIntSequence) {
  RngStream rng(12345);
  const int expected[] = {34, 38, 66, 54, 55, 20, 2, 66};
  for (int e : expected) EXPECT_EQ(rng.uniform_int(97), e);
}

TEST(RngStreamPinned, ExponentialSequence) {
  RngStream rng(12345);
  const double expected[] = {
      2.0565142428798442, 1.8303696020620406,
      0.74391564898381302, 1.1605816041119292,
  };
  for (double e : expected) EXPECT_NEAR(rng.exponential(2.0), e, 1e-12);
}

// ---- Statistical checks of the in-house algorithm branches ----

TEST(SplitMix64, ZigguratMomentsAndTails) {
  // The ziggurat generator (the ChannelBank innovations) must match N(0,1)
  // in moments and in the deep tail (where the wedge/tail rejection
  // branches do the work).
  const auto& zig = detail::ziggurat_tables();
  SplitMix64 rng(53);
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  int beyond_2 = 0, beyond_3 = 0;
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(zig);
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
    sum4 += x * x * x * x;
    if (std::fabs(x) > 2.0) ++beyond_2;
    if (std::fabs(x) > 3.0) ++beyond_3;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.005);
  EXPECT_NEAR(sum2 / n, 1.0, 0.01);
  EXPECT_NEAR(sum3 / n, 0.0, 0.02);
  EXPECT_NEAR(sum4 / n, 3.0, 0.05);
  EXPECT_NEAR(static_cast<double>(beyond_2) / n, 0.0455, 0.002);
  EXPECT_NEAR(static_cast<double>(beyond_3) / n, 0.0027, 0.0005);
}

TEST(RngStream, UniformIntLargeRangeUnbiased) {
  RngStream rng(41);
  const int n = 200000;
  double sum = 0.0;
  int lo_hits = 0, hi_hits = 0;
  for (int i = 0; i < n; ++i) {
    const int v = rng.uniform_int(1000);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
    sum += v;
    if (v < 100) ++lo_hits;
    if (v >= 900) ++hi_hits;
  }
  EXPECT_NEAR(sum / n, 499.5, 2.5);
  EXPECT_NEAR(static_cast<double>(lo_hits) / n, 0.1, 0.005);
  EXPECT_NEAR(static_cast<double>(hi_hits) / n, 0.1, 0.005);
}

TEST(RngStream, NormalSpareKeepsMomentsUnderInterleaving) {
  // Interleaving other draws between normal() calls must not corrupt the
  // cached Box-Muller spare.
  RngStream rng(43);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    (void)rng.uniform();  // perturb the engine between pair halves
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngStream, TwoArgConstructorMatchesDerivedSeed) {
  RngStream a(derive_seed(10, 20));
  RngStream b(10, 20);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// ---- RngStream::engine() spare invalidation (regression) ----
// engine() hands out the raw mt19937_64; any external draw moves the
// cursor, so a cached Box-Muller spare (computed from *earlier* cursor
// positions) must be dropped or the next normal() silently returns a
// variate that no replay of the raw stream can reproduce.

TEST(RngStream, EngineAccessInvalidatesBoxMullerSpare) {
  RngStream a(77);
  (void)a.normal();    // consumes 2 draws, caches the sin-variate spare
  (void)a.engine()();  // external draw: cursor moves, spare must die
  const double after_external = a.normal();

  // Reference stream replaying the identical raw-draw history with no
  // spare ever cached: 2 draws (the pair above) + 1 external draw, then a
  // fresh Box-Muller pair from the same cursor position.
  RngStream ref(77);
  (void)ref.engine()();
  (void)ref.engine()();
  (void)ref.engine()();
  EXPECT_DOUBLE_EQ(after_external, ref.normal());
}

TEST(RngStream, EngineAccessAloneDoesNotPerturbSequence) {
  // Touching engine() without drawing must not change what comes next
  // beyond dropping the spare: interleave accesses that draw nothing.
  RngStream a(78), b(78);
  (void)a.engine();  // no draw, no spare yet: a no-op
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngStream, InterleavedEngineDrawsAndNormalsStayReproducible) {
  // The full interleaving: every normal() between engine() draws must be
  // derivable from the raw stream alone (count the draws), for several
  // rounds. Two identical streams run the same interleaving and a third
  // checks the draw accounting: 3 raw draws per round (1 external + 2
  // Box-Muller).
  RngStream a(79), b(79), raw(79);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(a.engine()(), b.engine()());
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    for (int d = 0; d < 3; ++d) (void)raw.engine()();
  }
  // After 5 rounds all three cursors agree.
  EXPECT_EQ(a.engine()(), raw.engine()());
}

// ---- first_mt_draw ----
// Bank rows seed from mt19937_64's first draw without building the engine;
// the shortcut must be that draw, bit for bit, for every (root, stream).

TEST(FirstMtDraw, MatchesTheEnginesFirstDraw) {
  const auto engine_first = [](std::uint64_t root, std::uint64_t stream) {
    std::mt19937_64 engine(derive_seed(root, stream));
    return engine();
  };
  // The channel and rebirth stream name spaces of mac::MobileUser.
  constexpr std::uint64_t kChannelStream = 0x1000'0000ULL;
  constexpr std::uint64_t kRebirthStream = 0xA000'0000ULL;
  int mismatches = 0;
  const auto check = [&](std::uint64_t root, std::uint64_t stream) {
    if (first_mt_draw(root, stream) == engine_first(root, stream)) return;
    if (mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch: root " << root << " stream " << stream;
    }
  };
  for (const std::uint64_t root :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 63,
        ~std::uint64_t{0}}) {
    for (const std::uint64_t id : {0ULL, 1ULL, 4095ULL, 0x7FFF'FFFFULL}) {
      check(root, kChannelStream + id);
    }
    for (const std::uint64_t visit : {1ULL, 2ULL, 7ULL, 0xFFFFULL}) {
      check(root, kRebirthStream + visit);
    }
    check(root, 0);
    check(root, ~std::uint64_t{0});
  }
  // 100,000 pseudo-random roots against full-range, channel and rebirth
  // streams.
  SplitMix64 pick(2000);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t root = pick.next();
    const std::uint64_t draw = pick.next();
    switch (i % 3) {
      case 0: check(root, draw); break;
      case 1: check(root, kChannelStream + (draw >> 33)); break;
      default: check(root, kRebirthStream + (draw >> 32)); break;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ---- CompactRngStream ----

TEST(CompactRngStream, Deterministic) {
  CompactRngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(CompactRngStream, TwoArgConstructorMatchesDerivedSeed) {
  CompactRngStream a(derive_seed(10, 20));
  CompactRngStream b(10, 20);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(CompactRngStream, MatchesSplitMix64RawStream) {
  // The engine is exactly the repo's SplitMix64 (the ChannelBank lane
  // kernel advances the same chain in flat arrays).
  CompactRngStream a(9001);
  SplitMix64 b(9001);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.engine()(), b.next());
}

TEST(CompactRngStream, UniformAdvancesCounterByOneGamma) {
  CompactRngStream rng(5);
  const std::uint64_t before = rng.engine().raw_state();
  (void)rng.uniform();
  EXPECT_EQ(rng.engine().raw_state(), before + SplitMix64::kGamma);
}

// Seed-pinned compact sequences, locked the same way RngStreamPinned locks
// the mt19937_64 realizations: these exact values cannot change without a
// deliberate regeneration (which invalidates every compact-mode benchmark
// recorded so far).

TEST(CompactRngStreamPinned, RawSequence) {
  CompactRngStream rng(12345);
  const std::uint64_t expected[] = {
      2454886589211414944ULL,
      3778200017661327597ULL,
      2205171434679333405ULL,
      3248800117070709450ULL,
  };
  for (std::uint64_t e : expected) EXPECT_EQ(rng.engine()(), e);
}

TEST(CompactRngStreamPinned, UniformSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      0.13307966866142729, 0.20481663336165912, 0.11954258300911547,
      0.17611780724496118, 0.50688021550745599, 0.33703454463939386,
  };
  for (double e : expected) EXPECT_DOUBLE_EQ(rng.uniform(), e);
}

TEST(CompactRngStreamPinned, NormalSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      0.56254351858757046, 1.9279936267801183,  0.9228021975298103,
      1.8429870753916224,  -0.60619054616879076, 0.99573799314816358,
  };
  // Box-Muller goes through libm (log/sqrt/sin/cos), so allow a few ulp of
  // cross-platform slack while still pinning the realization.
  for (double e : expected) EXPECT_NEAR(rng.normal(), e, 1e-12);
}

TEST(CompactRngStreamPinned, UniformIntSequence) {
  CompactRngStream rng(12345);
  const int expected[] = {12, 19, 11, 17, 49, 32, 11, 41};
  for (int e : expected) EXPECT_EQ(rng.uniform_int(97), e);
}

TEST(CompactRngStreamPinned, ExponentialSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      4.0336146352096369, 3.1712803430570555,
      4.2481652558264136, 3.4732042970373307,
  };
  for (double e : expected) EXPECT_NEAR(rng.exponential(2.0), e, 1e-12);
}

// ---- Seed-pinned ziggurat kernel (the ChannelBank innovation stream) ----
// World goldens notice a kernel edit that changes a draw only through a
// whole simulated run; these pin the kernel itself, bit for bit. The window
// repeats the draw pattern of one four-branch ChannelBank::jump_user row
// (four normal_pair I/Q pairs, then the shadowing normal) 29 times, and
// seed 119 makes it cross every slow path: three wedge rejections, three
// wedge accepts, and one tail sample whose exponential-wrap loop rejects
// twice.

// Bitwise equality: tells -0.0 from 0.0, which EXPECT_EQ on doubles does not.
std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SplitMix64Pinned, ZigguratDraws) {
  const double expected[] = {
      -0x1.e0aa8323dc31dp-3, -0x1.430b56c84a1f1p-3, -0x1.922c3f805b3a7p-2,
      -0x1.5d1032b18de11p-4, 0x1.8a509cdaf9f4bp-3, 0x1.5c5041d2f3773p+0,
      -0x1.f317effe05f14p-2, -0x1.7c713db74b701p-2, -0x1.8d4bb4fb9b41fp-4,
      -0x1.31c5d1c54613bp-3, 0x1.b2fe3da9ecb3bp-8, 0x1.0c56661d93342p+1,
      -0x1.a7d2c5ed87693p-1, -0x1.2b2464e211acep-1, -0x1.0276e15d47725p+0,
      -0x1.05954bad43b35p+1, -0x1.61d1b8e7da96fp+0, -0x1.710c69656307bp+0,
      -0x1.8375527bbec89p-1, 0x1.8638d9bb15fb1p-3, -0x1.2f341fe97ff7ep-2,
      0x1.f44b69c0d90b9p-3, 0x1.0ac05f3b4d7dp-1, -0x1.26bcc93169ee1p+0,
      -0x1.d00bec9deaaefp-1, 0x1.105d0a031b719p+1, 0x1.3f1232c583e41p-1,
      -0x1.b03daaf15d83ep+0, 0x1.d1ee6b97317e5p-6, -0x1.ffbc9549bc9ddp+0,
      -0x1.4b33807bda899p-1, -0x1.42f0a6e5cc945p+0, -0x1.344959d34f95bp+0,
      -0x1.f3d4d0efa9dddp+0, 0x1.dcda41203f725p-2, 0x1.55daf0bd4dc3cp+0,
      0x1.53763ab36c3a7p-1, 0x1.bca3a3bebb687p-1, 0x1.8ea03218ebf9dp-1,
      -0x1.faee0318101fdp-1, -0x1.0c2478b51dfe5p-3, 0x1.ab4279c65fc73p-3,
      -0x1.28818bbd70302p-1, 0x1.5de5a88c909cap-1, -0x1.22920ee3ba43fp-4,
      0x1.83bbddbe6925dp+0, 0x1.637fb518a9e08p-1, -0x1.dcfa898e8f623p-2,
      0x1.3160bf0cf57adp-2, 0x1.4e1a55885c07bp-3, -0x1.e666257507374p-3,
      -0x1.65658f188d5e5p-6, -0x1.6c6ee164e3866p-3, 0x1.83e60a3a883c7p-1,
      0x1.58fa87e84ae1bp-5, 0x1.2bb1b3e3937e8p+1, 0x1.6767693f28fabp-2,
      0x1.a7f1b81e7dc5dp-7, 0x1.a8fdf991cd908p-2, -0x1.a216813778e21p-2,
      0x1.337c3ca9fbba2p-1, 0x1.4b75dcb60bfadp+0, 0x1.cdef466e1581fp-2,
      0x1.44fc0a24d9c16p+0, 0x1.4d3600ecdf8c6p-9, -0x1.741a6dd932218p-3,
      -0x1.1cd1469143ddp-2, 0x1.adf5c35d42d57p-1, -0x1.441e8a61d66bbp-2,
      0x1.4b40fbbbec834p-2, 0x1.2fd4d71db3867p+0, -0x1.8d2767ef5c97fp-1,
      0x1.bca5554154332p-2, 0x1.74a6d9c09619dp+0, -0x1.64d79617be607p-2,
      0x1.1e6629b76014ap-1, 0x1.c1d0f3cbe1fbbp-1, 0x1.9c0936f67a6a6p-1,
      -0x1.4d723fe42f8aap+0, -0x1.85a356bb4fe5ap-2, 0x1.a0ca62f87bf98p-1,
      0x1.ec8f4691a00e5p-1, 0x1.1047d96a8905ap-1, 0x1.6a934eae8131bp-1,
      -0x1.6ab1e72728adcp-2, -0x1.0a41f6b1ac928p-1, 0x1.d9f399a757c4bp-2,
      -0x1.85a1d9f6128d7p-4, 0x1.0282dc8152485p-1, -0x1.b7162a29dcde8p-1,
      -0x1.aa6a766820bbbp-2, 0x1.058267fc6cc67p-3, -0x1.6eaf476c9ce67p-1,
      0x1.14513c28fed6ap-4, 0x1.f37c3144f1b45p-1, 0x1.f3dadb1894221p-1,
      -0x1.e299546ce69f9p-2, -0x1.045cef419f978p-1, -0x1.7e4184869a00dp+0,
      -0x1.079ce389c1f5bp-5, 0x1.e295d2ee8b602p-3, -0x1.184719e6f0d06p-1,
      -0x1.21efc83c76387p+0, -0x1.7daa2fb11005dp-3, 0x1.0113b7afdf555p+0,
      0x1.89575a838602cp+0, 0x1.82244d3ce343p-4, 0x1.bd3d39437219ep-2,
      0x1.f1f1658931383p-4, 0x1.d9b0e52bf728cp-2, -0x1.b5fcbc1b8c75bp-5,
      0x1.5777f378c61b2p-1, -0x1.886d33ec37f7dp-1, -0x1.7a19037a3e93dp+0,
      0x1.4db1401883f04p-4, -0x1.ebd3cacdada0cp-3, 0x1.3ad285f78d196p+0,
      0x1.957092b156a62p+0, 0x1.f9caf855f4812p-1, 0x1.6d82d999c614fp-1,
      0x1.8f7c7115373cep-2, -0x1.508d9b4c5636p-1, 0x1.63eae12785bf6p-4,
      0x1.b92f8d76fde7dp-4, -0x1.3322c16dc9ce3p-1, -0x1.3d9133c01615cp-2,
      -0x1.67e69c3d14e83p-1, 0x1.05368e5d69e33p-1, 0x1.6256c5c0f17dcp-1,
      -0x1.0bedfcf639532p-1, 0x1.461ac22a7ff2ap-1, -0x1.d33fd3830ae6ep-2,
      -0x1.65d60fedad4e2p+1, -0x1.2c4fde69a07e3p-3, -0x1.9576f53e6e7f9p-1,
      -0x1.23cc24c1ac01ap-1, -0x1.28607035ecf2p-2, -0x1.0283daeaa7498p+0,
      -0x1.16a2b145885fep-3, 0x1.58b9344dac406p-1, 0x1.efff055d2dd73p-1,
      0x1.11fae0b81f3ffp-2, 0x1.266ef7a375aebp+0, -0x1.d51338e686f4bp-3,
      -0x1.ae9b5d40d2741p-1, -0x1.d5103adcf2a0dp-4, -0x1.090285bbfb255p+0,
      0x1.d0481f69f1cd3p-1, -0x1.5004bb1d7cd77p-4, -0x1.85c63edf9996bp-1,
      -0x1.a8d1947d361b1p-1, -0x1.9c86be578ea63p-2, -0x1.9bca375717c15p-3,
      -0x1.0eec5bd46cf82p+0, 0x1.a5c9b68582bep-1, 0x1.dc666e54434acp-2,
      -0x1.5dca09bb6997fp-2, -0x1.5a86b5189880bp-1, -0x1.00cd9c41feb6bp+0,
      0x1.0117d642f2d0ep-1, 0x1.c2ba57ed2d8adp-3, 0x1.42cbefa799a27p-1,
      -0x1.bc2c4cfcfa2aap-2, -0x1.1c26cc6026eap+0, 0x1.b196d6f4c8707p+0,
      0x1.465b632ec55b1p-1, -0x1.165dee67824cap-1, 0x1.92d5ca19e2b2ap-1,
      -0x1.dbf2810dc5e6ap+0, -0x1.3a3df4754253ap-1, -0x1.7cae696fdd4p-3,
      -0x1.98d2ea97e69a1p-1, -0x1.664e51f631762p-1, 0x1.83e94e0d85501p-1,
      0x1.b11677e387b46p-5, -0x1.3eb52e1371874p-1, 0x1.e4cad0febe2e7p-3,
      -0x1.6573527644ef4p-3, -0x1.0ee1dedfa4b94p-3, 0x1.9693e63056692p-2,
      -0x1.e54f7474fe5dfp-2, 0x1.9ae11d0263403p-4, -0x1.95d03f9b8c9d3p-3,
      -0x1.c1273add6117p-3, -0x1.62898e2dd159cp-2, 0x1.411e03d215059p+0,
      0x1.e80393b7178d8p-5, 0x1.5c8391eac45a9p-1, 0x1.d387a85a7cf64p-2,
      0x1.6812be9c374eap-1, -0x1.700807fe20f47p-1, -0x1.012e109ebebddp+0,
      -0x1.0c1ca9f2f8073p-2, -0x1.b879e528b9832p-5, 0x1.8464172a42a17p-1,
      0x1.291ab3e024809p-3, -0x1.5efed459a43f9p-1, -0x1.113740b9d1cacp-1,
      -0x1.6c36dfb950218p+0, -0x1.63695aae6a128p+0, -0x1.b9a8b4a9c7838p-2,
      0x1.2e9b1d90d97eap+0, 0x1.7358eb9773caep+1, 0x1.f821656d20ed6p-2,
      0x1.0face5f6d62f4p+0, -0x1.d1713a81cb6eap+0, -0x1.7a1194eae9228p+0,
      -0x1.8f78062e1fb1p+0, -0x1.61b1868978d17p-1, 0x1.7db3fe9aaca4ep-1,
      0x1.061f289c3efeap-1, -0x1.8369f46caf39ep-1, 0x1.5e4ea1fc37321p+0,
      0x1.117ecb364bdap+0, 0x1.38e25e4c99efbp-2, 0x1.04dc5e14573fep+0,
      0x1.105c333e69fa9p-1, 0x1.4649a49ee3473p-1, -0x1.1e755278d4e3fp+0,
      -0x1.1a8c7c911d50ep-3, 0x1.29bd1575564d3p-1, 0x1.53fe2eae37c6p+0,
      0x1.f0476c7a211aap-2, 0x1.3846c04e1cdbap-1, -0x1.9574390742a3ap-3,
      0x1.9a0454a6a4b44p-2, 0x1.063825d976662p-2, -0x1.bcddebd5f6dc5p-2,
      0x1.a187d04c1b1d4p+0, 0x1.c4ed2953702c6p-2, -0x1.9194057688e4dp-4,
      -0x1.961aeebddfc89p-1, 0x1.777574bea6333p+0, 0x1.9df3d964ff20ep+0,
      -0x1.7fafbea31d18fp-1, 0x1.05052c3dd0cddp-2, -0x1.24d7a74166d2fp+0,
      -0x1.7cc6ab613acd7p-3, 0x1.49249d63cb74ep-1, 0x1.2067978546ebp+0,
      0x1.ce9de4e5de1f4p-1, -0x1.e9b86aa706c16p-1, -0x1.337b3ef700728p-7,
      -0x1.a1bbedc743759p-1, -0x1.1ce263811e5c4p-1, 0x1.2804ba560b5eap-3,
      -0x1.84fbb293918bp-6, 0x1.457287adda436p-1, 0x1.d176f0a074a95p+1,
      0x1.7ef084a78cedbp-1, 0x1.17ab86dae7ae5p+0, -0x1.75971d99de9f4p-3,
      -0x1.3d58de7c6ba8p+0, 0x1.4d2b8cdb7237ep+1, -0x1.bdfcd04a4ae76p-1,
      -0x1.c1bb4f1c0e316p-2, -0x1.37b48fd797284p-2, 0x1.3183a8fed6075p-2,
      0x1.25d95eddd8fd3p-6, -0x1.3706797fea646p+0, 0x1.29ecfd2d82d25p-2,
  };
  constexpr std::size_t kRows = 29;
  static_assert(std::size(expected) == kRows * 9);
  constexpr std::uint64_t kSeed = 119;
  const auto& zig = detail::ziggurat_tables();
  SplitMix64 rng(kSeed);
  std::size_t i = 0;
  for (std::size_t row = 0; row < kRows; ++row) {
    for (int branch = 0; branch < 4; ++branch) {
      double re = 0.0, im = 0.0;
      rng.normal_pair(zig, re, im);
      EXPECT_EQ(bits_of(re), bits_of(expected[i])) << "variate " << i;
      EXPECT_EQ(bits_of(im), bits_of(expected[i + 1])) << "variate " << i + 1;
      i += 2;
    }
    EXPECT_EQ(bits_of(rng.normal(zig)), bits_of(expected[i]))
        << "variate " << i;
    ++i;
  }
  EXPECT_EQ(rng.raw_state(), 0x93cf3bfd3c4dc71bULL);

  // The rejections drew extra candidates and uniforms: the counter moved by
  // more than one gamma per variate (276 draws for 261 variates).
  std::size_t draws = 0;
  for (std::uint64_t s = kSeed;
       s != rng.raw_state() && draws <= 2 * std::size(expected);
       s += SplitMix64::kGamma) {
    ++draws;
  }
  EXPECT_GT(draws, std::size(expected));
}

TEST(ZigguratSign, SignBitFlipMatchesNegationOnTheAcceptPath) {
  // The sign of a variate is bit 7 of its candidate draw. The reference is
  // a plain conditional negation; IEEE negation is exactly a sign-bit flip,
  // so the two must agree bit for bit.
  const auto& zig = detail::ziggurat_tables();
  SplitMix64 source(0x5EED);
  SplitMix64 engine(0);  // the accept path draws nothing from it
  int checked = 0;
  while (checked < 1000000) {
    const std::uint64_t bits = source.next();
    const auto idx = static_cast<std::size_t>(bits & 127);
    const std::uint64_t hz = bits >> 11;
    if (hz >= zig.k[idx]) continue;  // wedge/tail candidates
    const double x = static_cast<double>(hz) * zig.w[idx];
    const double reference = ((bits >> 7) & 1) ? -x : x;
    ASSERT_EQ(bits_of(detail::ziggurat_normal_from(engine, zig, bits)),
              bits_of(reference))
        << "bits " << bits;
    ++checked;
  }
  EXPECT_EQ(engine.raw_state(), 0u);
}

TEST(ZigguratSign, ZeroMagnitudeKeepsItsSign) {
  // Layer 5 with magnitude 0 is on the accept path (only layer 1 has
  // k = 0), so the sign bit alone decides between +0.0 and -0.0.
  const auto& zig = detail::ziggurat_tables();
  ASSERT_GT(zig.k[5], 0u);
  SplitMix64 engine(0);
  const double negative = detail::ziggurat_normal_from(engine, zig, 0x80 | 5);
  EXPECT_EQ(negative, 0.0);
  EXPECT_TRUE(std::signbit(negative));
  const double positive = detail::ziggurat_normal_from(engine, zig, 5);
  EXPECT_EQ(positive, 0.0);
  EXPECT_FALSE(std::signbit(positive));
  EXPECT_EQ(engine.raw_state(), 0u);
}

// ---- Distribution equivalence: CompactRngStream vs RngStream ----
// Both streams are one template, BasicRngStream, over different engines,
// so they run the *same* draw algorithms; only the raw bits differ. Moments at fixed N must therefore agree within sampling error
// — computed on both streams and compared to each other as well as to the
// analytic values.

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

template <typename Rng, typename Draw>
Moments moments_of(Rng& rng, int n, Draw draw) {
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw(rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  return {mean, sum2 / n - mean * mean};
}

TEST(CompactVsMt, UniformMoments) {
  constexpr int kN = 400000;
  RngStream mt(101);
  CompactRngStream compact(101);
  const auto draw = [](auto& r) { return r.uniform(); };
  const Moments a = moments_of(mt, kN, draw);
  const Moments b = moments_of(compact, kN, draw);
  EXPECT_NEAR(a.mean, 0.5, 0.002);
  EXPECT_NEAR(b.mean, 0.5, 0.002);
  EXPECT_NEAR(a.var, 1.0 / 12.0, 0.001);
  EXPECT_NEAR(b.var, 1.0 / 12.0, 0.001);
  EXPECT_NEAR(a.mean, b.mean, 0.004);
}

TEST(CompactVsMt, ExponentialMoments) {
  constexpr int kN = 400000;
  RngStream mt(103);
  CompactRngStream compact(103);
  const auto draw = [](auto& r) { return r.exponential(1.35); };
  const Moments a = moments_of(mt, kN, draw);
  const Moments b = moments_of(compact, kN, draw);
  EXPECT_NEAR(a.mean, 1.35, 0.01);
  EXPECT_NEAR(b.mean, 1.35, 0.01);
  EXPECT_NEAR(a.var, 1.35 * 1.35, 0.05);
  EXPECT_NEAR(b.var, 1.35 * 1.35, 0.05);
}

TEST(CompactVsMt, NormalMomentsAndTails) {
  constexpr int kN = 1000000;
  RngStream mt(107);
  CompactRngStream compact(107);
  const auto tails = [](auto& rng) {
    double sum = 0.0, sum2 = 0.0;
    int beyond_2 = 0;
    for (int i = 0; i < kN; ++i) {
      const double x = rng.normal();
      sum += x;
      sum2 += x * x;
      if (std::fabs(x) > 2.0) ++beyond_2;
    }
    return std::tuple{sum / kN, sum2 / kN, beyond_2 / static_cast<double>(kN)};
  };
  const auto [m_mean, m_m2, m_tail] = tails(mt);
  const auto [c_mean, c_m2, c_tail] = tails(compact);
  EXPECT_NEAR(m_mean, 0.0, 0.005);
  EXPECT_NEAR(c_mean, 0.0, 0.005);
  EXPECT_NEAR(m_m2, 1.0, 0.01);
  EXPECT_NEAR(c_m2, 1.0, 0.01);
  EXPECT_NEAR(m_tail, 0.0455, 0.002);
  EXPECT_NEAR(c_tail, 0.0455, 0.002);
}

TEST(CompactVsMt, BernoulliRate) {
  constexpr int kN = 200000;
  RngStream mt(113);
  CompactRngStream compact(113);
  int a = 0, b = 0;
  for (int i = 0; i < kN; ++i) {
    a += mt.bernoulli(0.3);
    b += compact.bernoulli(0.3);
  }
  EXPECT_NEAR(a / static_cast<double>(kN), 0.3, 0.005);
  EXPECT_NEAR(b / static_cast<double>(kN), 0.3, 0.005);
}

TEST(CompactVsMt, UniformIntMeanAndCoverage) {
  constexpr int kN = 200000;
  RngStream mt(127);
  CompactRngStream compact(127);
  const auto stats = [](auto& rng) {
    double sum = 0.0;
    int lo = 0;
    for (int i = 0; i < kN; ++i) {
      const int v = rng.uniform_int(1000);
      sum += v;
      if (v < 100) ++lo;
    }
    return std::pair{sum / kN, lo / static_cast<double>(kN)};
  };
  const auto [m_mean, m_lo] = stats(mt);
  const auto [c_mean, c_lo] = stats(compact);
  EXPECT_NEAR(m_mean, 499.5, 2.5);
  EXPECT_NEAR(c_mean, 499.5, 2.5);
  EXPECT_NEAR(m_lo, 0.1, 0.005);
  EXPECT_NEAR(c_lo, 0.1, 0.005);
}

TEST(CompactRngStream, DomainErrorsMatchRngStream) {
  CompactRngStream rng(7);
  EXPECT_THROW(rng.uniform_int(0), std::domain_error);
  EXPECT_THROW(rng.exponential(0.0), std::domain_error);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

// ---- TrafficRng: the per-user stream-kind dispatcher ----

// Draws each of TrafficRng's three forwarded kinds from `t` and `ref` in
// turn, `rounds` times, and requires identical values.
template <typename Stream>
void expect_same_draws(TrafficRng& t, Stream& ref, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    EXPECT_EQ(t.bernoulli(0.3), ref.bernoulli(0.3)) << "round " << i;
    EXPECT_EQ(t.exponential(2.0), ref.exponential(2.0)) << "round " << i;
    EXPECT_EQ(t.normal(1.0, 2.0), ref.normal(1.0, 2.0)) << "round " << i;
  }
}

TEST(TrafficRng, MtKindReproducesRngStreamBitForBit) {
  TrafficRng t(RngKind::kMt, 42, 7);
  RngStream ref(42, 7);
  expect_same_draws(t, ref, 16);
}

TEST(TrafficRng, CompactKindReproducesCompactStreamBitForBit) {
  TrafficRng t(RngKind::kCompact, 42, 7);
  CompactRngStream ref(42, 7);
  expect_same_draws(t, ref, 16);
}

TEST(TrafficRng, ImplicitConversionFromStreams) {
  // The historical call shape — passing an RngStream by value — must keep
  // compiling and draw the same sequence.
  TrafficRng from_mt = RngStream(555);
  RngStream mt_ref(555);
  expect_same_draws(from_mt, mt_ref, 8);

  TrafficRng from_compact = CompactRngStream(555);
  CompactRngStream c_ref(555);
  expect_same_draws(from_compact, c_ref, 8);
}

TEST(TrafficRng, CopyIsDeepForBothKinds) {
  for (const RngKind kind : {RngKind::kMt, RngKind::kCompact}) {
    TrafficRng original(kind, 9, 9);
    (void)original.exponential(1.0);
    TrafficRng copy = original;  // snapshot mid-stream
    // Advancing the copy must not move the original (a handoff's adopted
    // source must fork, not alias).
    const double from_copy = copy.exponential(1.0);
    const double from_original = original.exponential(1.0);
    EXPECT_DOUBLE_EQ(from_copy, from_original);
    TrafficRng assigned(RngKind::kMt, 1, 1);
    assigned = original;
    EXPECT_DOUBLE_EQ(assigned.exponential(1.0), original.exponential(1.0));
  }
}

TEST(TrafficRng, CompactFootprintStaysSmall) {
  // The entire point: a compact-mode TrafficRng is a counter + spare +
  // flag + an (empty) mt pointer — two orders of magnitude below the
  // ~2.5 KB mt19937_64 state it replaces.
  static_assert(sizeof(CompactRngStream) <= 24);
  static_assert(sizeof(TrafficRng) <= 40);
  EXPECT_GE(sizeof(RngStream), 2500u);
}

}  // namespace
}  // namespace charisma::common

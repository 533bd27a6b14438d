// Deterministic random-number streams.
//
// Every stochastic entity in the simulator (each user's channel, each
// traffic source, each contention draw) owns its own stream derived from
// a root seed, so (a) runs are bit-reproducible given a scenario seed and
// (b) adding users or reordering events does not perturb other entities'
// draws — the property the paper's "common simulation platform" needs for a
// fair cross-protocol comparison.
//
// The draws are implemented in-house (Box–Muller normals with a cached
// spare, Lemire bounded integers, a ziggurat for the channel innovations)
// instead of the std:: distribution objects: the standard leaves their
// algorithms unspecified, so stdlib upgrades would silently change every
// simulation result, and the std implementations construct per-call state
// on the hot path. The raw bits come from engines whose output is fixed:
// std::mt19937_64 (pinned by the standard) and the splitmix64 counter
// below.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>

namespace charisma::common {

/// Derives well-separated 64-bit seeds from (root, stream-id) pairs using
/// the splitmix64 finalizer. Stateless; safe to call from any thread.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream);

/// The first output of std::mt19937_64 seeded with derive_seed(root,
/// stream), i.e. the first raw draw of RngStream(root, stream), computed
/// without building the 2.5 KB engine: that draw reads only words 0, 1 and
/// 156 of the seeding recurrence, so it costs 156 seeding steps, one twist
/// step and the tempering instead of 312 seeding steps and a 312-word
/// twist. Bank rows seed their innovation engines from it.
std::uint64_t first_mt_draw(std::uint64_t root, std::uint64_t stream);

namespace detail {

/// Marsaglia–Tsang ziggurat layer tables for the standard normal, built
/// once at first use (rng.cpp): 128 equal-area layers, 53-bit magnitude.
struct ZigguratTables {
  std::uint64_t k[128];
  double w[128];
  double f[128];
};
const ZigguratTables& ziggurat_tables();

/// Gives the magnitude `x` the sign in bit 7 of the candidate draw `bits`
/// by flipping the IEEE sign bit. That is exactly what negation does, ±0
/// included, so the value equals a conditional negation bit for bit; but a
/// conditional on a fresh random bit compiles to a branch that mispredicts
/// half the time.
inline double with_sign_of(double x, std::uint64_t bits) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               ((bits & 0x80) << 56));
}

/// Rejection continuation of the ziggurat sampler: handles the candidate
/// `bits` that failed (or may fail) the fast accept test — wedge and tail
/// rejection, drawing further candidates from `eng` as needed. Split out
/// of ziggurat_normal_from so the ~97.9% accept path stays small enough to
/// inline into the SoA jump loop; the sequence of engine draws is exactly
/// that of the original fused loop.
template <typename Engine>
double ziggurat_normal_slow(Engine& eng, const ZigguratTables& zig,
                            std::uint64_t bits) {
  for (;;) {
    const auto idx = static_cast<std::size_t>(bits & 127);
    const std::uint64_t hz = bits >> 11;
    const double x = static_cast<double>(hz) * zig.w[idx];
    if (hz < zig.k[idx]) return with_sign_of(x, bits);
    if (idx == 0) {
      // Tail beyond r: Marsaglia's exponential-wrap rejection.
      constexpr double r = 3.442619855899;
      double xt, yt;
      do {
        double u1 = eng.uniform();
        if (u1 <= 0.0) u1 = 0x1.0p-53;
        double u2 = eng.uniform();
        if (u2 <= 0.0) u2 = 0x1.0p-53;
        xt = -std::log(u1) / r;
        yt = -std::log(u2);
      } while (yt + yt < xt * xt);
      return with_sign_of(r + xt, bits);
    }
    // Wedge between layer idx and idx-1.
    if (zig.f[idx] + eng.uniform() * (zig.f[idx - 1] - zig.f[idx]) <
        std::exp(-0.5 * x * x)) {
      return with_sign_of(x, bits);
    }
    bits = eng.next();
  }
}

/// Ziggurat sampler over an engine exposing next() -> uint64 and
/// uniform() -> [0, 1), with the first candidate draw supplied by the
/// caller (lets callers pre-generate draws with independent mixing chains
/// for ILP). Header-inline so tight SoA loops inline the ~97.9%
/// single-draw accept path: layer index (bits 0-6), sign (bit 7) and a
/// 53-bit magnitude (bits 11-63) all funded by one 64-bit draw.
template <typename Engine>
inline double ziggurat_normal_from(Engine& eng, const ZigguratTables& zig,
                                   std::uint64_t bits) {
  const auto idx = static_cast<std::size_t>(bits & 127);
  const std::uint64_t hz = bits >> 11;
  if (hz < zig.k[idx]) {
    return with_sign_of(static_cast<double>(hz) * zig.w[idx], bits);
  }
  return ziggurat_normal_slow(eng, zig, bits);
}

}  // namespace detail

/// Minimal 8-byte generator (splitmix64) for state-dense SoA hot loops,
/// where mt19937_64's ~2.5 KB state would blow the cache out across a
/// large population. Passes BigCrush; one add + three xor-multiplies per
/// draw. A UniformRandomBitGenerator, so it is also CompactRngStream's
/// engine. Seed each instance from a well-mixed 64-bit value (e.g. a draw
/// of the owner's RngStream) to keep streams decorrelated.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next() { return mix(state_ += kGamma); }

  /// Uniform in [0, 1), 53-bit mantissa-exact.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via the shared ziggurat tables.
  double normal(const detail::ZigguratTables& zig) {
    return detail::ziggurat_normal_from(*this, zig, next());
  }

  /// Two standard normals. The state update is a plain add, so both
  /// candidate draws are mixed on independent dependency chains — in an
  /// unrolled SoA loop the two ~5-cycle multiply chains overlap instead
  /// of serializing (the I/Q innovation fast path of ChannelBank).
  void normal_pair(const detail::ZigguratTables& zig, double& a, double& b) {
    const std::uint64_t bits_a = mix(state_ + kGamma);
    const std::uint64_t bits_b = mix(state_ + 2 * kGamma);
    state_ += 2 * kGamma;
    a = detail::ziggurat_normal_from(*this, zig, bits_a);
    b = detail::ziggurat_normal_from(*this, zig, bits_b);
  }

  /// Raw counter state, exposed for the RNG-cursor assertions of the
  /// jump-vs-step equivalence tests.
  std::uint64_t raw_state() const { return state_; }

  /// The splitmix64 output mix (also derive_seed's finalizer).
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A self-contained random stream with the draws the models make, over a
/// 64-bit UniformRandomBitGenerator. Every draw is one algorithm for both
/// engines, so RngStream and CompactRngStream differ only in their raw
/// bits: moments match while realizations differ. Not thread-safe (each
/// thread/entity owns its own stream).
template <typename Engine>
class BasicRngStream {
 public:
  explicit BasicRngStream(std::uint64_t seed) : engine_(seed) {}
  BasicRngStream(std::uint64_t root, std::uint64_t stream)
      : engine_(derive_seed(root, stream)) {}

  /// Uniform in [0, 1), 53-bit mantissa-exact.
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0. Unbiased (Lemire's
  /// multiply-shift rejection).
  int uniform_int(int n);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal draw. Box–Muller pair; the second variate of each pair
  /// is cached and returned by the next call.
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Direct access for use with std:: distributions in benches and for
  /// seeding derived generators. External draws advance the engine without
  /// the stream's knowledge, so any cached Box–Muller spare would no
  /// longer be "the next variate after the engine's cursor" — drop it to
  /// keep normal() consistent with the raw stream position.
  Engine& engine() {
    has_spare_normal_ = false;
    return engine_;
  }

 private:
  Engine engine_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// The mt19937_64 stream: base-station and mobility seeding, and the
/// per-user traffic/MAC streams by default. Bank rows take only its first
/// draw, through first_mt_draw.
using RngStream = BasicRngStream<std::mt19937_64>;
/// The ~24-byte splitmix64 stream, for the per-attached-user traffic/MAC
/// streams of very large sparse populations, where mt19937_64's ~2.5 KB
/// state per stream dominates bytes-per-user.
using CompactRngStream = BasicRngStream<SplitMix64>;

extern template class BasicRngStream<std::mt19937_64>;
extern template class BasicRngStream<SplitMix64>;

/// Which generator backs the per-user traffic/MAC streams of a scenario.
/// kMt is the default and reproduces every historical pinned sequence bit
/// for bit; kCompact collapses per-attached-user RNG state from ~2.5 KB to
/// ~24 bytes per stream (opt-in, like channel=lazy: statistically
/// equivalent, a different realization).
enum class RngKind : std::uint8_t { kMt, kCompact };

/// A per-user random stream that is either a heap-held RngStream (mt mode,
/// the historical representation: the unique_ptr indirection is exactly
/// what MobileUser used to hold, so mt draws stay bit-identical) or an
/// inline CompactRngStream (compact mode, no heap at all). The dispatch
/// branch is perfectly predicted — a scenario picks one kind and sticks
/// with it. It forwards the three draws the traffic sources, contention,
/// PHY and CSI models make.
class TrafficRng {
 public:
  TrafficRng(RngKind kind, std::uint64_t root, std::uint64_t stream)
      : compact_(kind == RngKind::kCompact ? CompactRngStream(root, stream)
                                           : CompactRngStream(0)),
        mt_(kind == RngKind::kMt ? std::make_unique<RngStream>(root, stream)
                                 : nullptr) {}

  /// Wraps an existing stream (mt mode). Implicit: keeps the historical
  /// `VoiceSource(cfg, RngStream(seed))`-style call sites compiling.
  TrafficRng(RngStream stream)  // NOLINT(google-explicit-constructor)
      : compact_(0), mt_(std::make_unique<RngStream>(std::move(stream))) {}

  /// Wraps an existing compact stream (compact mode).
  TrafficRng(CompactRngStream stream)  // NOLINT(google-explicit-constructor)
      : compact_(stream) {}

  TrafficRng(const TrafficRng& other)
      : compact_(other.compact_),
        mt_(other.mt_ ? std::make_unique<RngStream>(*other.mt_) : nullptr) {}
  TrafficRng& operator=(const TrafficRng& other) {
    if (this != &other) {
      compact_ = other.compact_;
      mt_ = other.mt_ ? std::make_unique<RngStream>(*other.mt_) : nullptr;
    }
    return *this;
  }
  TrafficRng(TrafficRng&&) noexcept = default;
  TrafficRng& operator=(TrafficRng&&) noexcept = default;

  bool bernoulli(double p) {
    return mt_ ? mt_->bernoulli(p) : compact_.bernoulli(p);
  }
  double exponential(double mean) {
    return mt_ ? mt_->exponential(mean) : compact_.exponential(mean);
  }
  double normal(double mean, double stddev) {
    return mt_ ? mt_->normal(mean, stddev) : compact_.normal(mean, stddev);
  }

 private:
  CompactRngStream compact_;     // active iff mt_ == nullptr
  std::unique_ptr<RngStream> mt_;
};

}  // namespace charisma::common

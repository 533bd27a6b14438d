// Deterministic random-number streams.
//
// Every stochastic entity in the simulator (each user's channel, each
// traffic source, each contention draw) owns its own RngStream derived from
// a root seed, so (a) runs are bit-reproducible given a scenario seed and
// (b) adding users or reordering events does not perturb other entities'
// draws — the property the paper's "common simulation platform" needs for a
// fair cross-protocol comparison.
//
// The distribution layer is implemented in-house (Box–Muller normals with a
// cached spare, Lemire bounded integers, Knuth/PTRS Poisson) instead of the
// std:: distribution objects: the standard leaves their algorithms
// unspecified, so stdlib upgrades would silently change every simulation
// result, and the std implementations construct per-call state on the hot
// path. Only std::mt19937_64 (whose output *is* pinned by the standard) is
// kept as the raw bit source.
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

namespace detail {

/// Marsaglia–Tsang ziggurat layer tables for the standard normal, built
/// once at first use (rng.cpp): 128 equal-area layers, 53-bit magnitude.
struct ZigguratTables {
  std::uint64_t k[128];
  double w[128];
  double f[128];
};
const ZigguratTables& ziggurat_tables();

/// The splitmix64 increment and output mix, shared as free functions by
/// SplitMix64 and CompactRngStream so both produce the same sequence from
/// the same counter.
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

inline constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

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

/// Ziggurat sampler over any engine exposing next() -> uint64 and
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

template <typename Engine>
inline double ziggurat_normal(Engine& eng, const ZigguratTables& zig) {
  return ziggurat_normal_from(eng, zig, eng.next());
}

}  // namespace detail

/// Minimal 8-byte generator (splitmix64) for state-dense SoA hot loops,
/// where mt19937_64's ~2.5 KB state would blow the cache out across a
/// large population. Passes BigCrush; one add + three xor-multiplies per
/// draw. Seed each instance from a well-mixed 64-bit value (e.g. a draw
/// of the owner's RngStream) to keep streams decorrelated.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return mix(state_ += kGamma); }

  /// Uniform in [0, 1), 53-bit mantissa-exact.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via the shared ziggurat tables.
  double normal(const detail::ZigguratTables& zig) {
    return detail::ziggurat_normal(*this, zig);
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

 private:
  static constexpr std::uint64_t kGamma = detail::kSplitMixGamma;

  static std::uint64_t mix(std::uint64_t z) { return detail::splitmix64_mix(z); }

  std::uint64_t state_;
};

/// A self-contained random stream with the distribution draws the models
/// need. Wraps std::mt19937_64; not thread-safe (each thread/entity owns
/// its own stream).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}
  RngStream(std::uint64_t root, std::uint64_t stream)
      : engine_(derive_seed(root, stream)) {}

  /// Uniform in [0, 1).
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

  /// Standard normal via the Marsaglia–Tsang ziggurat (128 layers): the
  /// same distribution as normal() but a different realization at ~one
  /// engine draw per variate (no transcendentals on the accept path).
  /// The batched channel hot path draws its innovations here; normal()
  /// keeps the Box–Muller sequence the regression tests pin.
  double normal_fast();

  /// Rayleigh *amplitude* with E[X^2] = mean_square.
  double rayleigh_amplitude(double mean_square);

  /// Log-normal where the underlying normal is specified in dB:
  /// returns 10^(N(mean_db, sigma_db)/10).
  double lognormal_db(double mean_db, double sigma_db);

  /// Poisson with the given mean (>= 0). Knuth's product-of-uniforms for
  /// small means, Hörmann's PTRS transformed rejection for large ones.
  int poisson(double mean);

  /// Direct access for use with std:: distributions in tests and for
  /// seeding derived generators. External draws advance the engine without
  /// the distribution layer's knowledge, so any cached Box–Muller spare
  /// would no longer be "the next variate after the engine's cursor" —
  /// drop it to keep normal() consistent with the raw stream position.
  std::mt19937_64& engine() {
    has_spare_normal_ = false;
    return engine_;
  }

 private:
  int poisson_ptrs(double mean);

  std::mt19937_64 engine_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// The ~24-byte counter-based alternative to RngStream: splitmix64 state
/// (8 bytes) plus the cached Box–Muller spare, exposing the exact same
/// distribution surface. The algorithms are shared with RngStream (rng.cpp
/// instantiates one template layer for both), only the raw bit source
/// differs — so moments match while realizations differ. Built for the
/// per-attached-user traffic/MAC streams of very large sparse populations,
/// where mt19937_64's ~2.5 KB state per stream dominates bytes-per-user.
class CompactRngStream {
 public:
  explicit CompactRngStream(std::uint64_t seed) : state_(seed) {}
  CompactRngStream(std::uint64_t root, std::uint64_t stream)
      : state_(derive_seed(root, stream)) {}

  /// Raw 64-bit draw (splitmix64: one add, three xor-multiplies).
  std::uint64_t next() {
    return detail::splitmix64_mix(state_ += detail::kSplitMixGamma);
  }

  /// Uniform in [0, 1), 53-bit mantissa-exact.
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n), unbiased (Lemire multiply-shift).
  int uniform_int(int n);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal (Box–Muller with cached spare).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Standard normal via the shared 128-layer ziggurat tables.
  double normal_fast();

  /// Rayleigh *amplitude* with E[X^2] = mean_square.
  double rayleigh_amplitude(double mean_square);

  /// Log-normal specified in dB: 10^(N(mean_db, sigma_db)/10).
  double lognormal_db(double mean_db, double sigma_db);

  /// Poisson with the given mean (>= 0). Knuth below 10, PTRS beyond.
  int poisson(double mean);

  /// Raw counter state (cursor assertions in tests). Reading it does not
  /// perturb the stream, but mirrors engine(): setting it would desync a
  /// cached spare, so none is offered — reseed by constructing afresh.
  std::uint64_t raw_state() const { return state_; }

 private:
  int poisson_ptrs(double mean);

  std::uint64_t state_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

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
/// with it.
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

  RngKind kind() const { return mt_ ? RngKind::kMt : RngKind::kCompact; }

  double uniform() { return mt_ ? mt_->uniform() : compact_.uniform(); }
  double uniform(double lo, double hi) {
    return mt_ ? mt_->uniform(lo, hi) : compact_.uniform(lo, hi);
  }
  int uniform_int(int n) {
    return mt_ ? mt_->uniform_int(n) : compact_.uniform_int(n);
  }
  bool bernoulli(double p) {
    return mt_ ? mt_->bernoulli(p) : compact_.bernoulli(p);
  }
  double exponential(double mean) {
    return mt_ ? mt_->exponential(mean) : compact_.exponential(mean);
  }
  double normal() { return mt_ ? mt_->normal() : compact_.normal(); }
  double normal(double mean, double stddev) {
    return mt_ ? mt_->normal(mean, stddev) : compact_.normal(mean, stddev);
  }
  double normal_fast() {
    return mt_ ? mt_->normal_fast() : compact_.normal_fast();
  }
  double rayleigh_amplitude(double mean_square) {
    return mt_ ? mt_->rayleigh_amplitude(mean_square)
               : compact_.rayleigh_amplitude(mean_square);
  }
  double lognormal_db(double mean_db, double sigma_db) {
    return mt_ ? mt_->lognormal_db(mean_db, sigma_db)
               : compact_.lognormal_db(mean_db, sigma_db);
  }
  int poisson(double mean) {
    return mt_ ? mt_->poisson(mean) : compact_.poisson(mean);
  }

 private:
  CompactRngStream compact_;     // active iff mt_ == nullptr
  std::unique_ptr<RngStream> mt_;
};

}  // namespace charisma::common

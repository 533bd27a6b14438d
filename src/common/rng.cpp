#include "common/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace charisma::common {

namespace {

detail::ZigguratTables build_ziggurat_tables() {
  // Marsaglia & Tsang 2000, "The ziggurat method for generating random
  // variables": 128 rectangular layers of equal area vn under the standard
  // normal density, tail split at r = 3.4426..., scaled for 53-bit draws.
  detail::ZigguratTables t;
  constexpr double m = 9007199254740992.0;  // 2^53
  constexpr double vn = 9.91256303526217e-3;
  double dn = 3.442619855899;
  double tn = dn;
  const double q = vn / std::exp(-0.5 * dn * dn);
  t.k[0] = static_cast<std::uint64_t>((dn / q) * m);
  t.k[1] = 0;
  t.w[0] = q / m;
  t.w[127] = dn / m;
  t.f[0] = 1.0;
  t.f[127] = std::exp(-0.5 * dn * dn);
  for (int i = 126; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
    t.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * m);
    tn = dn;
    t.f[i] = std::exp(-0.5 * dn * dn);
    t.w[i] = dn / m;
  }
  return t;
}

}  // namespace

namespace detail {
const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = build_ziggurat_tables();
  return tables;
}
}  // namespace detail

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  // splitmix64 finalizer over a mixed input; distinct (root, stream) pairs
  // map to well-decorrelated outputs.
  return SplitMix64::mix(root + SplitMix64::kGamma * (stream + 1));
}

std::uint64_t first_mt_draw(std::uint64_t root, std::uint64_t stream) {
  // MT19937-64 (Nishimura, "Tables of 64-bit Mersenne Twisters", ACM
  // TOMACS 10(4), 2000; the standard's [rand.eng.mers]). Seeding fills
  // x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i; the first output is x[m]
  // xor the twist of (the upper bits of x[0] | the lower bits of x[1]),
  // tempered.
  using Mt = std::mt19937_64;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << Mt::mask_bits;
  const auto seed_step = [](std::uint64_t prev, std::uint64_t i) {
    return Mt::initialization_multiplier *
               (prev ^ (prev >> (Mt::word_size - 2))) +
           i;
  };
  const std::uint64_t x0 = derive_seed(root, stream);
  const std::uint64_t x1 = seed_step(x0, 1);
  std::uint64_t xm = x1;
  for (std::uint64_t i = 2; i <= Mt::shift_size; ++i) xm = seed_step(xm, i);
  const std::uint64_t y = (x0 & kUpper) | (x1 & ~kUpper);
  std::uint64_t z = xm ^ (y >> 1) ^ ((y & 1) != 0 ? Mt::xor_mask : 0);
  z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
  z ^= (z << Mt::tempering_s) & Mt::tempering_b;
  z ^= (z << Mt::tempering_t) & Mt::tempering_c;
  return z ^ (z >> Mt::tempering_l);
}

template <typename Engine>
double BasicRngStream<Engine>::uniform() {
  // 53-bit mantissa-exact uniform in [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

template <typename Engine>
double BasicRngStream<Engine>::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

template <typename Engine>
int BasicRngStream<Engine>::uniform_int(int n) {
  if (n <= 0) throw std::domain_error("uniform_int: n must be positive");
  // Lemire's multiply-shift: map a 64-bit draw onto [0, n) via the high
  // word of a 128-bit product, rejecting the sliver that would bias the
  // result. One multiply on the accept path; rejection probability < n/2^64.
  const auto range = static_cast<std::uint64_t>(n);
  unsigned __int128 product = static_cast<unsigned __int128>(engine_()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0ULL - range) % range;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(engine_()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<int>(static_cast<std::uint64_t>(product >> 64));
}

template <typename Engine>
bool BasicRngStream<Engine>::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

template <typename Engine>
double BasicRngStream<Engine>::exponential(double mean) {
  if (mean <= 0.0) {
    throw std::domain_error("exponential: mean must be positive");
  }
  double u = uniform();
  // Guard the log against u == 0.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

template <typename Engine>
double BasicRngStream<Engine>::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Box–Muller: exactly two uniforms per pair of variates, so the draw
  // count per call is deterministic (unlike polar rejection) and the spare
  // costs nothing to cache.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * uniform();
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return radius * std::cos(theta);
}

template <typename Engine>
double BasicRngStream<Engine>::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

template class BasicRngStream<std::mt19937_64>;
template class BasicRngStream<SplitMix64>;

}  // namespace charisma::common

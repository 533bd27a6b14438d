#include "channel/channel_bank.hpp"

#include <cassert>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "channel/fading.hpp"
#include "common/math.hpp"

namespace charisma::channel {

namespace {
constexpr double kHalfPower = 0.7071067811865476;  // sqrt(1/2)

// Memoizing every distinct stride is safe: protocols use a handful of frame
// lengths, so the per-group table stays tiny. The cap only guards against a
// pathological caller advancing by a never-repeating stride sequence.
constexpr std::size_t kMaxCachedStrides = 64;
}  // namespace

common::Hertz ChannelConfig::doppler_for_speed(common::Speed speed,
                                               common::Hertz carrier_hz) {
  if (speed < 0.0 || carrier_hz <= 0.0) {
    throw std::invalid_argument("doppler_for_speed: invalid arguments");
  }
  return speed * carrier_hz / common::kSpeedOfLight;
}

void ChannelBank::reserve(std::size_t users) {
  configs_.reserve(users);
  rng_.reserve(users);
  branch_begin_.reserve(users);
  branch_count_.reserve(users);
  mean_snr_linear_.reserve(users);
  mean_snr_db_.reserve(users);
  interference_db_.reserve(users);
  interference_linear_.reserve(users);
  shadow_sigma_db_.reserve(users);
  inv_branch_count_.reserve(users);
  step_.reserve(users);
  group_.reserve(users);
  fading_power_.reserve(users);
  shadow_db_.reserve(users);
  shadow_linear_.reserve(users);
  dt_index_.reserve(users);
  vacant_.reserve(users);
}

std::size_t ChannelBank::group_for(double fade_rho, double shadow_rho) {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].fade_rho == fade_rho &&
        groups_[g].shadow_rho == shadow_rho) {
      return g;
    }
  }
  groups_.push_back(ParamGroup{fade_rho, shadow_rho, {}});
  return groups_.size() - 1;
}

namespace {
void validate_channel_config(const ChannelConfig& config) {
  if (config.diversity_branches < 1) {
    throw std::invalid_argument("ChannelBank: need >= 1 diversity branch");
  }
  if (config.shadow_sigma_db < 0.0) {
    throw std::invalid_argument("ChannelBank: shadow_sigma_db must be >= 0");
  }
  if (config.shadow_tau <= 0.0 || config.sample_interval <= 0.0) {
    throw std::invalid_argument(
        "ChannelBank: shadow_tau and sample_interval must be > 0");
  }
}
}  // namespace

std::size_t ChannelBank::add_user(const ChannelConfig& config,
                                  common::RngStream rng) {
  return seed_row(configs_.size(), config, rng);
}

std::size_t ChannelBank::acquire_user(const ChannelConfig& config,
                                      common::RngStream rng) {
  // LIFO scan for a row whose branch storage fits; the ragged fade arrays
  // cannot be resliced in place, so a mismatched branch count appends.
  std::size_t pick = free_slots_.size();
  for (std::size_t i = free_slots_.size(); i-- > 0;) {
    if (branch_count_[free_slots_[i]] == config.diversity_branches) {
      pick = i;
      break;
    }
  }
  if (pick == free_slots_.size()) return add_user(config, rng);
  const std::size_t slot = seed_row(free_slots_[pick], config, rng);
  free_slots_.erase(free_slots_.begin() + static_cast<std::ptrdiff_t>(pick));
  vacant_[slot] = 0;
  --vacant_count_;
  return slot;
}

std::size_t ChannelBank::seed_row(std::size_t slot,
                                  const ChannelConfig& config,
                                  common::RngStream& rng) {
  // Validate before touching anything, so a rejected config leaves the
  // bank as it was.
  validate_channel_config(config);
  const double fade_rho =
      ar_rho_for(config.doppler_hz, config.sample_interval);
  const double shadow_rho =
      std::exp(-config.sample_interval / config.shadow_tau);

  if (slot == configs_.size()) {
    // Append a placeholder row; every field is written below.
    const std::size_t rows = slot + 1;
    branch_begin_.push_back(fade_re_.size());
    branch_count_.push_back(config.diversity_branches);
    fade_re_.resize(fade_re_.size() +
                    static_cast<std::size_t>(config.diversity_branches));
    fade_im_.resize(fade_re_.size());
    for (auto* column : {&mean_snr_linear_, &mean_snr_db_, &interference_db_,
                         &interference_linear_, &shadow_sigma_db_,
                         &inv_branch_count_, &fading_power_,
                         &shadow_db_, &shadow_linear_}) {
      column->resize(rows);
    }
    configs_.resize(rows);
    rng_.emplace_back(0);
    step_.resize(rows);
    group_.resize(rows);
    dt_index_.resize(rows);
    vacant_.resize(rows);
  }

  configs_[slot] = config;
  mean_snr_linear_[slot] = common::from_db(config.mean_snr_db);
  mean_snr_db_[slot] = config.mean_snr_db;
  interference_db_[slot] = 0.0;
  interference_linear_[slot] = 1.0;
  inv_branch_count_[slot] =
      1.0 / static_cast<double>(config.diversity_branches);
  shadow_sigma_db_[slot] = config.shadow_sigma_db;
  group_[slot] = group_for(fade_rho, shadow_rho);

  // Register the sample interval with the bank clock: one floor() per
  // distinct dt per set_time, one table slot per row.
  std::size_t di = 0;
  while (di < distinct_dts_.size() &&
         distinct_dts_[di] != config.sample_interval) {
    ++di;
  }
  if (di == distinct_dts_.size()) {
    distinct_dts_.push_back(config.sample_interval);
    dt_targets_.push_back(static_cast<std::int64_t>(
        std::floor(bank_time_ / config.sample_interval + 1e-9)));
  }
  dt_index_[slot] = static_cast<std::uint32_t>(di);
  // A row seeded mid-run starts stationary *now* — at the clock's current
  // step for its dt — not at step 0 (which would turn its first touch into
  // one giant catch-up jump). At construction time both are step 0, so the
  // historical sequences are unchanged.
  step_[slot] = dt_targets_[di];

  // The row's RngStream seeds its compact innovation engine. Stationary
  // start, same draw order as the scalar classes: per branch an I then a
  // Q component, then the shadowing value.
  common::SplitMix64 fast(rng.engine()());
  const auto& zig = common::detail::ziggurat_tables();
  const std::size_t begin = branch_begin_[slot];
  double power = 0.0;
  for (int b = 0; b < config.diversity_branches; ++b) {
    const double re = kHalfPower * fast.normal(zig);
    const double im = kHalfPower * fast.normal(zig);
    fade_re_[begin + static_cast<std::size_t>(b)] = re;
    fade_im_[begin + static_cast<std::size_t>(b)] = im;
    power += re * re + im * im;
  }
  fading_power_[slot] =
      power / static_cast<double>(config.diversity_branches);
  const double shadow = config.shadow_sigma_db * fast.normal(zig);
  shadow_db_[slot] = shadow;
  shadow_linear_[slot] = common::from_db(shadow);
  rng_[slot] = fast;
  active_dirty_ = true;
  return slot;
}

void ChannelBank::release_user(std::size_t slot) {
  if (slot >= configs_.size()) {
    throw std::out_of_range("ChannelBank::release_user: bad slot");
  }
  if (vacant_[slot]) {
    throw std::logic_error("ChannelBank::release_user: slot already vacant");
  }
  vacant_[slot] = 1;
  ++vacant_count_;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  active_dirty_ = true;
}

void ChannelBank::refresh_active() const {
  const std::size_t n = configs_.size();
  if (!active_dirty_ && scratch_ids_.size() == n - vacant_count_) return;
  scratch_ids_.clear();
  scratch_ids_.reserve(n - vacant_count_);
  if (vacant_count_ == 0) {
    scratch_ids_.resize(n);
    std::iota(scratch_ids_.begin(), scratch_ids_.end(), 0u);
  } else {
    for (std::size_t u = 0; u < n; ++u) {
      if (!vacant_[u]) scratch_ids_.push_back(static_cast<std::uint32_t>(u));
    }
  }
  active_dirty_ = false;
}

ChannelBank::JumpCoeffs ChannelBank::compute_coeffs(double fade_rho,
                                                    double shadow_rho,
                                                    std::int64_t k) {
  const double fade_rho_k = std::pow(fade_rho, static_cast<double>(k));
  const double shadow_rho_k = std::pow(shadow_rho, static_cast<double>(k));
  JumpCoeffs c;
  c.fade_rho_k = fade_rho_k;
  c.fade_component_scale = std::sqrt((1.0 - fade_rho_k * fade_rho_k) * 0.5);
  c.shadow_rho_k = shadow_rho_k;
  c.shadow_unit_scale = std::sqrt(1.0 - shadow_rho_k * shadow_rho_k);
  return c;
}

ChannelBank::JumpCoeffs ChannelBank::shared_coeffs(double fade_rho,
                                                   double shadow_rho,
                                                   std::int64_t k) {
  struct Entry {
    double fade_rho;
    double shadow_rho;
    std::int64_t k;
    JumpCoeffs c;
  };
  // The cached value equals compute_coeffs bit for bit (it *is* a stored
  // compute_coeffs result), so hitting or missing this cache can never
  // perturb a simulation — only skip a pow(). The cap mirrors the local
  // kMaxCachedStrides guard against never-repeating stride sequences.
  static std::mutex mutex;
  static std::vector<Entry> cache;
  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& e : cache) {
    if (e.fade_rho == fade_rho && e.shadow_rho == shadow_rho && e.k == k) {
      return e.c;
    }
  }
  const JumpCoeffs c = compute_coeffs(fade_rho, shadow_rho, k);
  if (cache.size() >= 64 * kMaxCachedStrides) cache.clear();
  cache.push_back(Entry{fade_rho, shadow_rho, k, c});
  return c;
}

const ChannelBank::JumpCoeffs& ChannelBank::coeffs(std::size_t group,
                                                   std::int64_t k) {
  auto& strides = groups_[group].strides;
  for (const auto& entry : strides) {
    if (entry.first == k) return entry.second;
  }
  const JumpCoeffs c =
      shared_coeffs(groups_[group].fade_rho, groups_[group].shadow_rho, k);
  if (strides.size() >= kMaxCachedStrides) strides.clear();
  strides.emplace_back(k, c);
  return strides.back().second;
}

void ChannelBank::jump_user(std::size_t user, const JumpCoeffs& c) {
  auto& rng = rng_[user];
  const auto& zig = common::detail::ziggurat_tables();
  const std::size_t begin = branch_begin_[user];
  const std::size_t end = begin + static_cast<std::size_t>(branch_count_[user]);
  double* const re = fade_re_.data();
  double* const im = fade_im_.data();
  double power = 0.0;
  for (std::size_t b = begin; b < end; ++b) {
    double wr, wi;
    rng.normal_pair(zig, wr, wi);
    const double r = c.fade_rho_k * re[b] + c.fade_component_scale * wr;
    const double i = c.fade_rho_k * im[b] + c.fade_component_scale * wi;
    re[b] = r;
    im[b] = i;
    power += r * r + i * i;
  }
  fading_power_[user] = power * inv_branch_count_[user];
  shadow_db_[user] = c.shadow_rho_k * shadow_db_[user] +
                     shadow_sigma_db_[user] * c.shadow_unit_scale *
                         rng.normal(zig);
  shadow_linear_[user] = -1.0;  // recomputed lazily on first SNR read
}

void ChannelBank::advance_user_to(std::size_t user, common::Time t) {
  set_time(t);
  materialize_user(user);
}

void ChannelBank::set_time(common::Time t) {
  // O(1) in the population: one floor() per distinct sample interval. The
  // epsilon absorbs accumulated floating-point error when t is built by
  // summing frame durations that are not exact binary fractions. Every
  // pinned sequence depends on this exact expression.
  for (std::size_t i = 0; i < distinct_dts_.size(); ++i) {
    const auto target = static_cast<std::int64_t>(
        std::floor(t / distinct_dts_[i] + 1e-9));
    if (target < dt_targets_[i]) {
      throw std::logic_error("ChannelBank::set_time: time went backwards");
    }
    dt_targets_[i] = target;
  }
  bank_time_ = t;
}

void ChannelBank::materialize_user(std::size_t user) {
  const std::int64_t target = dt_targets_[dt_index_[user]];
  const std::int64_t k = target - step_[user];
  // One clock: rows only ever advance *to* it, so none is ahead.
  assert(k >= 0);
  if (k == 0) return;
  jump_user(user, coeffs(group_[user], k));
  step_[user] = target;
  ++jump_events_;
  jump_frames_ += k;
}

void ChannelBank::materialize_batch(std::span<const std::uint32_t> slots) {
  // Bit-identical to the historical advance_all_to body when slots is the
  // full population.
  std::size_t last_group = static_cast<std::size_t>(-1);
  std::int64_t last_k = -1;
  const JumpCoeffs* c = nullptr;
  for (const std::uint32_t slot : slots) {
    const std::size_t user = slot;
    const std::int64_t target = dt_targets_[dt_index_[user]];
    const std::int64_t k = target - step_[user];
    assert(k >= 0);
    if (k == 0) continue;
    if (c == nullptr || group_[user] != last_group || k != last_k) {
      last_group = group_[user];
      last_k = k;
      c = &coeffs(last_group, k);
    }
    jump_user(user, *c);
    step_[user] = target;
    ++jump_events_;
    jump_frames_ += k;
  }
}

void ChannelBank::materialize_all() {
  // "All" means all *active* rows: vacant rows must never advance (their
  // next acquire re-seeds them) nor count toward the jump accounting. With
  // no vacancies the batch is the historical full iota, bit for bit.
  refresh_active();
  materialize_batch(scratch_ids_);
}

void ChannelBank::materialize_users(std::span<const std::uint32_t> slots) {
  for (const std::uint32_t slot : slots) {
    if (slot >= configs_.size()) {
      throw std::out_of_range("ChannelBank::materialize_users: bad slot");
    }
    if (vacant_[slot]) {
      throw std::logic_error("ChannelBank::materialize_users: vacant slot");
    }
  }
  materialize_batch(slots);
}

void ChannelBank::advance_all_to(common::Time t) {
  set_time(t);
  materialize_all();
}

void ChannelBank::set_mean_snr_db(std::size_t user, double db) {
  if (user >= configs_.size()) {
    throw std::out_of_range("ChannelBank::set_mean_snr_db: bad user");
  }
  configs_[user].mean_snr_db = db;
  mean_snr_db_[user] = db;
  mean_snr_linear_[user] = common::from_db(db);
}

void ChannelBank::set_mean_snr_db_all(std::span<const double> db) {
  if (db.size() < configs_.size()) {
    throw std::invalid_argument("ChannelBank::set_mean_snr_db_all: short span");
  }
  // db[slot] is defined only for active slots; vacant rows keep whatever
  // they held (re-seeded on acquire, never read).
  refresh_active();
  for (const std::uint32_t u : scratch_ids_) {
    configs_[u].mean_snr_db = db[u];
    mean_snr_db_[u] = db[u];
    mean_snr_linear_[u] = common::from_db(db[u]);
  }
}

void ChannelBank::set_interference_db_all(std::span<const double> db) {
  if (db.size() < configs_.size()) {
    throw std::invalid_argument(
        "ChannelBank::set_interference_db_all: short span");
  }
  refresh_active();
  for (const std::uint32_t u : scratch_ids_) {
    interference_db_[u] = db[u];
    interference_linear_[u] = common::from_db(-db[u]);
  }
}

double ChannelBank::snr_db(std::size_t user) const {
  return common::to_db(snr_linear(user));
}

void ChannelBank::snr_db_all(std::span<double> out) const {
  if (out.size() < configs_.size()) {
    throw std::invalid_argument("ChannelBank::snr_db_all: short span");
  }
  // The pilot plane reads everyone, so it brings every active row to the
  // clock first — under the lazy schedule this is what bounds a mobile
  // world's idle gaps at one epoch; after advance_all_to it is one compare
  // per row. Same logical-constness note as ensure_user.
  const_cast<ChannelBank*>(this)->materialize_all();
  constexpr double kTenOverLn10 = 4.342944819032518;  // 10 / ln(10)
  // Vacant rows keep whatever out[slot] already held — the caller owns the
  // slot-indexed buffer and only reads active entries. Subtracting the
  // interference penalty last keeps the interference-free value (penalty
  // 0.0) bit-identical to the pre-SINR pilot plane.
  for (const std::uint32_t u : scratch_ids_) {
    out[u] = mean_snr_db_[u] + shadow_db_[u] +
             kTenOverLn10 * std::log(fading_power_[u]) - interference_db_[u];
  }
}

}  // namespace charisma::channel

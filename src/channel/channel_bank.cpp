#include "channel/channel_bank.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "channel/fading.hpp"
#include "common/math.hpp"

namespace charisma::channel {

namespace {
constexpr double kHalfPower = 0.7071067811865476;  // sqrt(1/2)

// Memoizing every distinct stride is safe: protocols use a handful of frame
// lengths, so the table stays tiny. The cap only guards against a
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
  rng_.reserve(users);
  mean_snr_linear_.reserve(users);
  mean_snr_db_.reserve(users);
  interference_db_.reserve(users);
  interference_linear_.reserve(users);
  step_.reserve(users);
  fading_power_.reserve(users);
  shadow_db_.reserve(users);
  shadow_linear_.reserve(users);
  vacant_.reserve(users);
}

void ChannelBank::admit_environment(const ChannelConfig& config) {
  if (!step_.empty()) {
    if (config.doppler_hz != env_.doppler_hz ||
        config.shadow_sigma_db != env_.shadow_sigma_db ||
        config.shadow_tau != env_.shadow_tau ||
        config.diversity_branches != env_.diversity_branches ||
        config.sample_interval != env_.sample_interval) {
      throw std::invalid_argument(
          "ChannelBank: a row's config may differ from the bank's "
          "environment only in mean_snr_db");
    }
    return;
  }
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
  const double fade_rho =
      ar_rho_for(config.doppler_hz, config.sample_interval);
  env_ = config;
  branches_ = static_cast<std::size_t>(config.diversity_branches);
  inv_branches_ = 1.0 / static_cast<double>(config.diversity_branches);
  fade_rho_ = fade_rho;
  shadow_rho_ = std::exp(-config.sample_interval / config.shadow_tau);
  // The first row starts at the clock's grid step: set_time only tracks
  // the step once the grid is known.
  target_step_ = static_cast<std::int64_t>(
      std::floor(bank_time_ / config.sample_interval + 1e-9));
}

std::size_t ChannelBank::add_user(const ChannelConfig& config,
                                  std::uint64_t seed) {
  // Checked before touching anything, so a rejected config leaves the bank
  // as it was.
  admit_environment(config);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    vacant_[slot] = 0;
    --vacant_count_;
  } else {
    // Append a placeholder row; every field is written below.
    slot = step_.size();
    const std::size_t rows = slot + 1;
    fade_re_.resize(fade_re_.size() + branches_);
    fade_im_.resize(fade_re_.size());
    for (auto* column : {&mean_snr_linear_, &mean_snr_db_, &interference_db_,
                         &interference_linear_, &fading_power_, &shadow_db_,
                         &shadow_linear_}) {
      column->resize(rows);
    }
    rng_.emplace_back(0);
    step_.resize(rows);
    vacant_.resize(rows);
  }

  mean_snr_linear_[slot] = common::from_db(config.mean_snr_db);
  mean_snr_db_[slot] = config.mean_snr_db;
  interference_db_[slot] = 0.0;
  interference_linear_[slot] = 1.0;
  // A row added mid-run starts stationary *now* — at the clock's current
  // step — not at step 0 (which would turn its first touch into one giant
  // catch-up jump). At construction time both are step 0, so the
  // historical sequences are unchanged.
  step_[slot] = target_step_;

  // Stationary start, same draw order as the scalar classes: per branch an
  // I then a Q component, then the shadowing value.
  common::SplitMix64 fast(seed);
  const auto& zig = common::detail::ziggurat_tables();
  double* const re = fade_re_.data() + slot * branches_;
  double* const im = fade_im_.data() + slot * branches_;
  double power = 0.0;
  for (std::size_t b = 0; b < branches_; ++b) {
    re[b] = kHalfPower * fast.normal(zig);
    im[b] = kHalfPower * fast.normal(zig);
    power += re[b] * re[b] + im[b] * im[b];
  }
  fading_power_[slot] = power / static_cast<double>(branches_);
  const double shadow = env_.shadow_sigma_db * fast.normal(zig);
  shadow_db_[slot] = shadow;
  shadow_linear_[slot] = common::from_db(shadow);
  rng_[slot] = fast;
  active_dirty_ = true;
  return slot;
}

void ChannelBank::release_user(std::size_t slot) {
  if (slot >= step_.size()) {
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
  const std::size_t n = step_.size();
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

const ChannelBank::JumpCoeffs& ChannelBank::coeffs(std::int64_t k) {
  for (const auto& entry : strides_) {
    if (entry.first == k) return entry.second;
  }
  const double fade_rho_k = std::pow(fade_rho_, static_cast<double>(k));
  const double shadow_rho_k = std::pow(shadow_rho_, static_cast<double>(k));
  JumpCoeffs c;
  c.fade_rho_k = fade_rho_k;
  c.fade_component_scale = std::sqrt((1.0 - fade_rho_k * fade_rho_k) * 0.5);
  c.shadow_rho_k = shadow_rho_k;
  c.shadow_unit_scale = std::sqrt(1.0 - shadow_rho_k * shadow_rho_k);
  if (strides_.size() >= kMaxCachedStrides) strides_.clear();
  strides_.emplace_back(k, c);
  return strides_.back().second;
}

void ChannelBank::jump_user(std::size_t user, const JumpCoeffs& c) {
  auto& rng = rng_[user];
  const auto& zig = common::detail::ziggurat_tables();
  double* const re = fade_re_.data() + user * branches_;
  double* const im = fade_im_.data() + user * branches_;
  double power = 0.0;
  for (std::size_t b = 0; b < branches_; ++b) {
    double wr, wi;
    rng.normal_pair(zig, wr, wi);
    const double r = c.fade_rho_k * re[b] + c.fade_component_scale * wr;
    const double i = c.fade_rho_k * im[b] + c.fade_component_scale * wi;
    re[b] = r;
    im[b] = i;
    power += r * r + i * i;
  }
  fading_power_[user] = power * inv_branches_;
  shadow_db_[user] = c.shadow_rho_k * shadow_db_[user] +
                     env_.shadow_sigma_db * c.shadow_unit_scale *
                         rng.normal(zig);
  shadow_linear_[user] = -1.0;  // recomputed lazily on first SNR read
}

void ChannelBank::advance_user_to(std::size_t user, common::Time t) {
  set_time(t);
  materialize_user(user);
}

void ChannelBank::set_time(common::Time t) {
  // O(1) in the population: one floor() on the environment's grid once it
  // is known. The epsilon absorbs accumulated floating-point error when t
  // is built by summing frame durations that are not exact binary
  // fractions. Every pinned sequence depends on this exact expression.
  if (!step_.empty()) {
    const auto target = static_cast<std::int64_t>(
        std::floor(t / env_.sample_interval + 1e-9));
    if (target < target_step_) {
      throw std::logic_error("ChannelBank::set_time: time went backwards");
    }
    target_step_ = target;
  }
  bank_time_ = t;
}

void ChannelBank::materialize_user(std::size_t user) {
  const std::int64_t k = target_step_ - step_[user];
  // One clock: rows only ever advance *to* it, so none is ahead.
  assert(k >= 0);
  if (k == 0) return;
  jump_user(user, coeffs(k));
  step_[user] = target_step_;
  ++jump_events_;
  jump_frames_ += k;
}

void ChannelBank::materialize_batch(std::span<const std::uint32_t> slots) {
  // Bit-identical to the historical advance_all_to body when slots is the
  // full population.
  std::int64_t last_k = 0;
  const JumpCoeffs* c = nullptr;
  for (const std::uint32_t slot : slots) {
    const std::size_t user = slot;
    const std::int64_t k = target_step_ - step_[user];
    assert(k >= 0);
    if (k == 0) continue;
    if (k != last_k) {
      last_k = k;
      c = &coeffs(k);
    }
    jump_user(user, *c);
    step_[user] = target_step_;
    ++jump_events_;
    jump_frames_ += k;
  }
}

void ChannelBank::materialize_all() {
  // "All" means all *active* rows: vacant rows must never advance (their
  // next add_user re-seeds them) nor count toward the jump accounting. With
  // no vacancies the batch is the historical full iota, bit for bit.
  refresh_active();
  materialize_batch(scratch_ids_);
}

void ChannelBank::materialize_users(std::span<const std::uint32_t> slots) {
  for (const std::uint32_t slot : slots) {
    if (slot >= step_.size()) {
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

void ChannelBank::set_mean_snr_db_all(std::span<const double> db) {
  if (db.size() < step_.size()) {
    throw std::invalid_argument("ChannelBank::set_mean_snr_db_all: short span");
  }
  // db[slot] is defined only for active slots; vacant rows keep whatever
  // they held (re-seeded on add_user, never read).
  refresh_active();
  for (const std::uint32_t u : scratch_ids_) {
    mean_snr_db_[u] = db[u];
    mean_snr_linear_[u] = common::from_db(db[u]);
  }
}

void ChannelBank::set_interference_db_all(std::span<const double> db) {
  if (db.size() < step_.size()) {
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
  if (out.size() < step_.size()) {
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

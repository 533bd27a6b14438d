// Batched structure-of-arrays channel evolution — the simulator's hottest
// loop, rebuilt for population scale.
//
// A bank is one radio environment: the users of a cell share its Doppler
// spread, shadowing process (sigma, tau), diversity order and sample grid,
// and differ only in their link-budget mean SNR, their state and their
// innovation stream. Every user's diversity-branch I/Q fading states live
// in contiguous parallel arrays at a fixed stride (no per-user heap
// objects, no std::complex indirection), and one pass advances all users
// to a frame boundary. The per-sample AR(1) walk is replaced by its
// closed-form k-step jump:
//
//     h[n+k] = rho^k * h[n] + sqrt(1 - rho^(2k)) * w,   w ~ CN(0, 1)
//
// (exact, because the AR(1) recursion composes into the same Gauss-Markov
// form at any stride), and the matching Ornstein–Uhlenbeck jump for the
// log-normal shadowing dB process. Variable-length frames (RMAV/DRMA) and
// long idle gaps therefore cost O(1) per user instead of O(k); the bank
// keeps one rho^k / sqrt(1-rho^2k) table per stride, so the common frame
// strides cost a table lookup instead of two pow() calls.
//
// Each row keeps its own SplitMix64 innovation engine, seeded by the 64-bit
// value add_user is given. A world user's row seed is the first draw of
// std::mt19937_64 seeded from (scenario seed, user id, visit), which
// common::first_mt_draw computes without building the engine, so results
// are independent of population size and of whether a user is advanced
// individually or in the batched pass.
//
// One clock per bank: set_time(t) moves the frame boundary in O(1), and a
// row materializes up to it through the same closed-form jump — in bulk
// (advance_all_to / materialize_all), for a declared touch set
// (materialize_users), or by the first read of a row that is behind it.
// Every read brings its row to the clock first, which is one compare when
// the row is already current. Which schedule a run follows is decided
// outside the bank, by when its caller materializes: the eager schedule
// (advance_all_to every frame, the default) reproduces the historical
// sequences bit for bit; the lazy one (set_time every frame, touch sets and
// reads materialize) lets a row idle for k frames pay one jump (two table
// lookups) instead of k. Because every row owns a private innovation
// stream, a lazy realization is independent of *who* triggers
// materialization and of the order rows materialize in; it is NOT
// samplewise identical to the eager one (a k-jump consumes one innovation
// set where k unit steps consume k — the two are equal in distribution,
// not in realization).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::channel {

/// Static description of the radio environment shared by all users.
struct ChannelConfig {
  double mean_snr_db = 16.0;      ///< link-budget mean SNR at the receiver
  double shadow_sigma_db = 3.0;   ///< log-normal shadowing std-dev
  common::Time shadow_tau = 1.0;  ///< shadowing decorrelation time, s
  common::Hertz doppler_hz = 100.0;  ///< Doppler spread (50 km/h default)
  int diversity_branches = 4;     ///< effective-SNR diversity order
  common::Time sample_interval = 2.5e-3;  ///< grid step (one TDMA frame)

  /// Doppler spread for a device moving at `speed` with carrier wavelength
  /// implied by `carrier_hz`: fd = v * fc / c.
  static common::Hertz doppler_for_speed(common::Speed speed,
                                         common::Hertz carrier_hz);
};

/// SoA bank of one radio environment's per-user fading + shadowing
/// processes, stepped on the environment's sample grid. Rows enter through
/// add_user and leave through release_user (sparse presence recycles them);
/// the caller addresses a row by the returned slot index — a user's channel
/// *is* its row (MobileUser::slot), and a standalone trace is a one-row
/// bank.
class ChannelBank {
 public:
  ChannelBank() = default;

  void reserve(std::size_t users);

  /// Adds a user in the stationary channel state and returns its slot. The
  /// first row fixes the bank's environment; a later `config` that differs
  /// from it in anything but mean_snr_db throws std::invalid_argument and
  /// leaves the bank as it was. The slot is the last released one (LIFO,
  /// so serial and parallel worlds that release in the same coordinator
  /// order reuse the same slots), else a new row at the end. Either way
  /// the row's innovation engine is SplitMix64(`seed`), it draws its
  /// stationary start in the same order, and it starts at the bank clock's
  /// current step, so what it materializes depends only on its seed and on
  /// when it was added — not on the population around it, nor on which
  /// slot it got.
  std::size_t add_user(const ChannelConfig& config, std::uint64_t seed);

  /// Seeds the row from `rng`'s next engine draw.
  std::size_t add_user(const ChannelConfig& config, common::RngStream rng) {
    return add_user(config, rng.engine()());
  }

  /// Returns `slot` to the free-list. The row's state stays in place but
  /// is excluded from every whole-bank operation (materialize_all,
  /// set_*_all, snr_db_all), so vacant rows never advance, draw, or count
  /// toward materialization accounting. Double release throws.
  void release_user(std::size_t slot);

  /// Slots currently backing a live user (size() minus the free-list).
  std::size_t active_count() const { return step_.size() - vacant_count_; }

  /// True when `slot` is on the free-list.
  bool vacant(std::size_t slot) const { return vacant_[slot] != 0; }

  std::size_t size() const { return step_.size(); }

  /// Advances every user to (the grid point at or before) `t` in one pass:
  /// set_time(t) + materialize_all(). Called every frame, this is the
  /// historical eager schedule bit for bit.
  void advance_all_to(common::Time t);

  /// set_time(t) + materializing just `user`; everyone else catches up on
  /// their own next read or touch. Times must be non-decreasing.
  void advance_user_to(std::size_t user, common::Time t);

  /// O(1) frame-clock move: records `t` (non-decreasing) as the boundary
  /// every subsequent read/touch materializes to. No per-user work.
  void set_time(common::Time t);

  /// Materializes the given rows up to the bank clock in one batch (the
  /// frame's declared touch set: transmitters, contenders, polled rows).
  /// Entries are bank slots, not world user ids — ProtocolEngine
  /// translates. Slots out of [0, size()) and vacant slots throw before any
  /// row advances; duplicates are fine (a second materialization at the
  /// same clock is a no-op).
  void materialize_users(std::span<const std::uint32_t> slots);

  /// Materializes every user up to the bank clock (epoch pilot planes).
  void materialize_all();

  /// Materialization accounting since construction: `jump_events` counts
  /// executed jumps (user-frames where work was done), `jump_frames` the
  /// user-frames covered (sum of jump strides). The eager schedule reports
  /// a stride of exactly 1 (events == frames); the gap between the two is
  /// the work the lazy schedule avoided.
  struct LazyStats {
    std::int64_t jump_events = 0;
    std::int64_t jump_frames = 0;
  };
  LazyStats lazy_stats() const { return {jump_events_, jump_frames_}; }

  /// Re-anchors every active user's link-budget mean SNR from db[slot] in
  /// one pass — the mobility fast path: path loss moves the means while
  /// the fading/shadowing processes (and every RNG draw order) are left
  /// completely undisturbed, so a mobile run stays replayable against a
  /// static one draw for draw. The mobility layer feeds a whole cell's
  /// path-loss plane through here each epoch.
  void set_mean_snr_db_all(std::span<const double> db);

  /// Bulk co-channel interference plane: db[u] is the SINR penalty
  /// (10·log10(1 + I/N), >= 0) subtracted from every subsequent SNR read,
  /// so snr_db()/snr_db_all()/snr_linear() report SINR. Like
  /// set_mean_snr_db_all this touches neither the fading/shadowing state
  /// nor the per-user RNG draw order, and a penalty of exactly 0 leaves
  /// every read bit-identical to a bank that never saw interference —
  /// both guarantees are pinned by tests/channel/channel_bank_test.cpp.
  void set_interference_db_all(std::span<const double> db);

  /// Current SINR penalty (dB) applied to `user`'s reads; 0 by default.
  double interference_db(std::size_t user) const {
    return interference_db_[user];
  }

  /// Current link-budget mean SNR (dB) of `user`.
  double mean_snr_db(std::size_t user) const { return mean_snr_db_[user]; }

  /// Instantaneous effective SNR (linear) of `user` at its current state,
  /// after the interference penalty (SINR when an interference plane is
  /// set; the default penalty factor is exactly 1). The dB→linear
  /// shadowing conversion is lazy: an advance only marks it stale, and
  /// the exp() is paid by the first read — protocol frames read the SNR
  /// of a handful of candidates, not of the whole population.
  double snr_linear(std::size_t user) const {
    ensure_user(user);
    return mean_snr_linear_[user] * fading_power_[user] *
           shadow_linear(user) * interference_linear_[user];
  }
  double snr_db(std::size_t user) const;

  /// Bulk pilot read: brings every active row to the bank clock, then
  /// writes each one's instantaneous SNR (dB) to out[slot], leaving vacant
  /// slots' entries as they were. Works in the dB domain — mean dB +
  /// shadowing dB + 10·log10(fading power) — so it pays one log per user
  /// where the scalar snr_db() pays an exp (lazy shadowing) *and* a log10
  /// through the linear domain. Same quantity, different operation order:
  /// values agree with snr_db() to floating-point rounding.
  void snr_db_all(std::span<double> out) const;

  /// Components, exposed for tracing and tests.
  double fading_power(std::size_t user) const {
    ensure_user(user);
    return fading_power_[user];
  }
  double shadow_db(std::size_t user) const {
    ensure_user(user);
    return shadow_db_[user];
  }

  /// Per-branch I/Q state and the private innovation-engine cursor,
  /// exposed for the jump-vs-step equivalence tests (which pin that k
  /// deferred clock moves + one materialization equals one k-jump bitwise,
  /// RNG cursor included). Branch reads do NOT materialize.
  double fade_re(std::size_t user, int branch) const {
    return fade_re_[user * branches_ + static_cast<std::size_t>(branch)];
  }
  double fade_im(std::size_t user, int branch) const {
    return fade_im_[user * branches_ + static_cast<std::size_t>(branch)];
  }
  std::uint64_t rng_cursor(std::size_t user) const {
    return rng_[user].raw_state();
  }

  /// The bank's environment with `user`'s current mean SNR.
  ChannelConfig config(std::size_t user) const {
    ChannelConfig row = env_;
    row.mean_snr_db = mean_snr_db_[user];
    return row;
  }
  std::int64_t current_step(std::size_t user) const { return step_[user]; }

 private:
  /// Jump coefficients at stride k. The innovation scales are for a
  /// *unit-variance* target: the fading per-component scale folds in the
  /// CN(0,1) half-power; the shadowing scale is multiplied by sigma_db at
  /// the use site.
  struct JumpCoeffs {
    double fade_rho_k;
    double fade_component_scale;   // sqrt((1 - rho^2k) / 2)
    double shadow_rho_k;
    double shadow_unit_scale;      // sqrt(1 - rho_s^2k)
  };

  /// The memoized coefficients for stride k: repeated frame strides cost a
  /// table lookup instead of two pow() calls per user.
  const JumpCoeffs& coeffs(std::int64_t k);
  void jump_user(std::size_t user, const JumpCoeffs& c);

  /// Fixes the bank's environment from the first row's `config` (validated
  /// first, so a rejected config leaves the bank as it was), or checks
  /// that a later row's `config` matches it in all but mean_snr_db.
  void admit_environment(const ChannelConfig& config);

  /// Materializes one user up to the bank clock (the read path).
  void materialize_user(std::size_t user);
  /// Logical-constness escape for reads: the observable value is "the
  /// state at the bank clock"; whether it is physically materialized is an
  /// implementation detail (banks are externally synchronized per cell, so
  /// no concurrent-read hazard is introduced).
  void ensure_user(std::size_t user) const {
    if (step_[user] != target_step_) {
      const_cast<ChannelBank*>(this)->materialize_user(user);
    }
  }

  /// The memoized scalar jump loop over `slots`: consecutive rows sharing
  /// a stride reuse the previous iteration's coefficients, so an eager
  /// frame pays one table lookup per batch.
  void materialize_batch(std::span<const std::uint32_t> slots);

  double shadow_linear(std::size_t user) const {
    double linear = shadow_linear_[user];
    if (linear < 0.0) {  // stale since the last advance
      // exp(ln10/10 * dB) — same value as from_db, cheaper than pow.
      linear = std::exp(0.23025850929940457 * shadow_db_[user]);
      shadow_linear_[user] = linear;
    }
    return linear;
  }

  // ---- The radio environment (fixed by the first row) ----
  // env_.mean_snr_db is unused: each row's mean lives in mean_snr_db_.
  ChannelConfig env_;
  std::size_t branches_ = 0;      // fade_re_/fade_im_ stride per row
  double inv_branches_ = 0.0;     // 1 / branches_
  double fade_rho_ = 0.0;
  double shadow_rho_ = 0.0;
  std::vector<std::pair<std::int64_t, JumpCoeffs>> strides_;

  // 8-byte per-user engines: with mt19937_64's ~2.5 KB state the RNG alone
  // would stream tens of MB through the cache per frame at 10k+ users.
  std::vector<common::SplitMix64> rng_;

  // ---- SoA state ----
  // Branch I/Q states for all users, contiguous; user u owns
  // [u * branches_, (u + 1) * branches_).
  std::vector<double> fade_re_;
  std::vector<double> fade_im_;

  std::vector<double> mean_snr_linear_;
  std::vector<double> mean_snr_db_;
  // Interference penalty in both domains (dB subtracted by snr_db_all,
  // linear factor 10^(-dB/10) multiplied by snr_linear); 0 dB / 1.0 until
  // set_interference_db_all is called.
  std::vector<double> interference_db_;
  std::vector<double> interference_linear_;
  std::vector<std::int64_t> step_;

  // Cached outputs of the last advance (what the MAC layer actually reads);
  // shadow_linear_ < 0 marks a stale entry recomputed on first read.
  std::vector<double> fading_power_;
  std::vector<double> shadow_db_;
  mutable std::vector<double> shadow_linear_;

  // ---- Clock ----
  // The frame boundary as a step on the environment's sample grid, so
  // ensure_user is one load + a compare. It follows set_time once the
  // first row exists; before that only bank_time_ moves.
  common::Time bank_time_ = 0.0;
  std::int64_t target_step_ = 0;
  // Ascending active-slot list fed to the batch loop and the bulk loops.
  // With no vacancies it is the iota over all slots (the historical
  // materialize_all batch, bit for bit); rebuilt lazily after any
  // add/release. Mutable: refreshing it from a const read path is the same
  // logical-constness escape as ensure_user.
  mutable std::vector<std::uint32_t> scratch_ids_;
  mutable bool active_dirty_ = false;
  void refresh_active() const;

  // ---- Row lifecycle (sparse presence) ----
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::vector<char> vacant_;               // 1 = on the free-list
  std::size_t vacant_count_ = 0;

  // Materialization accounting (see lazy_stats).
  std::int64_t jump_events_ = 0;
  std::int64_t jump_frames_ = 0;
};

}  // namespace charisma::channel

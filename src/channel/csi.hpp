// Channel state information (CSI) estimation and bookkeeping.
//
// The base station estimates a user's CSI from pilot symbols embedded in
// request packets or solicited through the CSI-polling subframe (paper
// §4.4). An estimate is noisy (finite pilot energy) and ages: the paper
// treats an estimate as valid for two frame durations; beyond that it is
// "expired" and the CHARISMA refresh mechanism re-polls high-priority
// backlog requests.
#pragma once

#include "common/math.hpp"
#include "common/units.hpp"

namespace charisma::channel {

/// A timestamped SNR estimate.
struct CsiEstimate {
  double snr_linear = 0.0;
  common::Time estimated_at = -1.0;

  bool valid() const { return estimated_at >= 0.0; }

  /// True when the estimate is older than `validity` at time `now`.
  bool expired(common::Time now, common::Time validity) const {
    return !valid() || (now - estimated_at) > validity + 1e-12;
  }
};

/// Produces pilot-based estimates of the true SNR with log-domain Gaussian
/// estimation error.
class CsiEstimator {
 public:
  /// error_sigma_db: std-dev of the estimation error in dB (0 disables
  /// noise). validity: how long an estimate stays fresh (paper: 2 frames).
  CsiEstimator(double error_sigma_db, common::Time validity);

  /// `rng` is the observed user's stream — any type with a
  /// normal(mean, stddev) draw (a BasicRngStream or a TrafficRng).
  template <typename Rng>
  CsiEstimate estimate(double true_snr_linear, common::Time now,
                       Rng& rng) const {
    double snr = true_snr_linear;
    if (error_sigma_db_ > 0.0) {
      snr *= common::from_db(rng.normal(0.0, error_sigma_db_));
    }
    return CsiEstimate{snr, now};
  }

  common::Time validity() const { return validity_; }
  double error_sigma_db() const { return error_sigma_db_; }

 private:
  double error_sigma_db_;
  common::Time validity_;
};

}  // namespace charisma::channel

// The paper's file-data source model (§2): bursts arrive with exponential
// interarrival times (mean 1 s); each burst holds an exponentially
// distributed number of fixed-size packets (mean 100). Packets arrive at
// frame boundaries, are delay-insensitive (never expire), and corrupted
// transmissions are retransmitted by the datalink layer — the per-packet
// arrival timestamp is kept so the paper's delay metric (arrival to start
// of the *successful* transmission) can be reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::traffic {

struct DataSourceConfig {
  double mean_interarrival_s = 1.0;
  double mean_burst_packets = 100.0;
  common::Time frame_duration = 2.5e-3;

  // Two-state Markov-modulated arrivals (MMPP) beyond the plain Poisson
  // process: in the high state bursts arrive mmpp_rate_ratio times faster;
  // the modulating chain toggles with exponential sojourns of the given
  // mean. ratio = 1 or sojourn = 0 disables the chain entirely (no extra
  // RNG draws; the Poisson process is reproduced bit for bit).
  double mmpp_rate_ratio = 1.0;
  double mmpp_mean_sojourn_s = 0.0;

  bool mmpp_enabled() const {
    return mmpp_rate_ratio > 1.0 && mmpp_mean_sojourn_s > 0.0;
  }
};

/// A FIFO of packet arrival times, run-length encoded: each entry is one
/// arrival time and the number of queued packets that share it, so a
/// burst queues as a single run. The runs sit in a ring over one
/// std::vector that grows only when every slot holds a run, so a backlog
/// that moves without needing more runs (arrivals, deliveries, ARQ returns
/// to the head) never touches the heap.
class ArrivalRing {
 public:
  /// Queued packets (not runs).
  std::size_t size() const { return packets_; }
  bool empty() const { return packets_ == 0; }
  /// The oldest packet's arrival time. Requires !empty().
  common::Time front() const { return runs_[head_].time; }
  /// Removes the oldest packet. Requires !empty().
  void pop_front() {
    if (--runs_[head_].count == 0) {
      head_ = head_ + 1 == runs_.size() ? 0 : head_ + 1;
      --used_;
    }
    --packets_;
  }
  /// Appends `count` packets that arrived at `t`.
  void push_back(common::Time t, std::size_t count);
  /// Puts `arrivals` ahead of the oldest packet, in their given order.
  void push_front(std::span<const common::Time> arrivals);

 private:
  struct Run {
    common::Time time;
    std::size_t count;
  };
  /// Slot of the k-th live run (k < used_).
  std::size_t slot(std::size_t k) const {
    const std::size_t i = head_ + k;
    return i >= runs_.size() ? i - runs_.size() : i;
  }
  /// Doubles the ring (to at least 4 runs), oldest run first.
  void grow();

  std::vector<Run> runs_;  ///< capacity == runs_.size()
  std::size_t head_ = 0;
  std::size_t used_ = 0;     ///< live runs
  std::size_t packets_ = 0;  ///< packets over the live runs
};

class DataSource {
 public:
  /// `rng` is the source's private stream, a TrafficRng: an RngStream or a
  /// CompactRngStream converts implicitly. The source draws exponential
  /// interarrival, sojourn and burst-size values from it.
  DataSource(const DataSourceConfig& config, common::TrafficRng rng);

  struct FrameUpdate {
    int bursts_arrived = 0;
    int packets_arrived = 0;
  };

  /// Advances to the frame boundary at `now`; bursts whose arrival time has
  /// passed join the backlog at this boundary (paper: packets arrive at
  /// frame boundaries).
  FrameUpdate on_frame(common::Time now);

  /// When the next burst arrives: on_frame(t) with t + 1e-9 <
  /// next_event_time() adds nothing. Only on_frame moves it, and only
  /// later (push_front and set_rate_scale leave it alone).
  common::Time next_event_time() const { return next_burst_at_; }

  int backlog() const { return static_cast<int>(queue_.size()); }
  bool empty() const { return queue_.empty(); }

  /// Arrival time of the head-of-line packet. Requires !empty().
  common::Time head_arrival() const { return queue_.front(); }

  /// Removes the head-of-line packet (successfully delivered).
  void pop_head();

  /// Returns failed packets (by arrival time) to the head of the queue in
  /// their original order — the datalink ARQ path. Takes a view: callers
  /// already hold the arrivals contiguously (a local array or a reused
  /// scratch buffer), so no per-frame vector is materialized.
  void push_front(std::span<const common::Time> arrivals);

  std::int64_t packets_generated() const { return packets_generated_; }
  const DataSourceConfig& config() const { return config_; }

  /// Scenario-level burst intensity scaling (flash crowds, diurnal tides):
  /// interarrival means shrink by the factor from the next draw on.
  /// scale = 1 (the default) reproduces the legacy draws bit for bit.
  void set_rate_scale(double scale);
  double rate_scale() const { return rate_scale_; }

 private:
  /// Draws the gap to the burst after `ref`, first advancing the MMPP
  /// modulating chain to `ref` so the gap uses the state in force there.
  double next_gap(common::Time ref);

  DataSourceConfig config_;
  common::TrafficRng rng_;
  double rate_scale_ = 1.0;
  bool mmpp_high_ = false;
  common::Time mmpp_toggle_at_ = 0.0;
  ArrivalRing queue_;  ///< per-packet arrival time
  common::Time next_burst_at_;
  std::int64_t packets_generated_ = 0;
};

}  // namespace charisma::traffic

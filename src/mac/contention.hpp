// Slotted request contention (paper §2, "Request Contention Model"):
// in each request minislot every still-unserved contender transmits with
// its class's permission probability; the minislot succeeds iff exactly one
// device transmitted (no capture effect). The base station acknowledges the
// winner immediately on the downlink, so winners stop contending within the
// same request phase.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/units.hpp"

namespace charisma::mac {

struct ContentionTally {
  int minislots = 0;
  int successes = 0;
  int collisions = 0;
  int idle = 0;
  /// Total request transmissions across all minislots (energy accounting).
  int transmissions = 0;
};

struct ContentionOutcome {
  /// Winning user ids in minislot order.
  std::vector<common::UserId> winners;
  /// Users that transmitted a request in at least one minislot (winners
  /// included). Losers among these experienced a collision, which drives
  /// the backoff stabilization.
  std::vector<common::UserId> transmitted;
  ContentionTally tally;
};

/// One candidate of a request phase, resolved once per phase: its stream,
/// its permission probability, and its won/transmitted flags.
template <typename Stream>
struct Contender {
  Stream* rng = nullptr;
  double permission = 0.0;
  std::uint8_t flags = 0;
};

/// Runs `minislots` request slots over `candidates` into `outcome`.
/// `permission(id)` gives each user's permission probability; `rng_of(id)`
/// must return a reference to that user's private stream — any stream
/// type with a bernoulli(double) draw (a BasicRngStream or the TrafficRng
/// dispatcher) — which keeps runs reproducible regardless of
/// candidate-set composition. Both are called once per candidate, before
/// the first minislot: nothing a phase does changes a permission, and
/// each minislot then draws from the resolved streams in candidate order.
/// Winners are removed from contention as they succeed. `outcome` and
/// `contenders` (per-candidate scratch) are overwritten; a caller that
/// keeps both across calls reuses their storage, so a warm phase
/// allocates nothing.
template <typename Permission, typename RngOf, typename Stream>
void run_request_phase(const std::vector<common::UserId>& candidates,
                       int minislots, Permission&& permission, RngOf&& rng_of,
                       ContentionOutcome& outcome,
                       std::vector<Contender<Stream>>& contenders) {
  if (minislots < 0) {
    throw std::invalid_argument("run_request_phase: negative minislots");
  }
  outcome.winners.clear();
  outcome.transmitted.clear();
  outcome.tally = ContentionTally{};
  outcome.tally.minislots = minislots;

  // Track candidates by index: kWon removes them from contention,
  // kTransmitted feeds the backoff stabilization.
  constexpr std::uint8_t kWon = 1;
  constexpr std::uint8_t kTransmitted = 2;
  contenders.clear();
  for (const common::UserId id : candidates) {
    contenders.push_back(Contender<Stream>{&rng_of(id), permission(id), 0});
  }
  std::size_t remaining = candidates.size();

  for (int slot = 0; slot < minislots && remaining > 0; ++slot) {
    std::size_t transmitter_index = candidates.size();
    int transmitted = 0;
    for (std::size_t i = 0; i < contenders.size(); ++i) {
      Contender<Stream>& c = contenders[i];
      if (c.flags & kWon) continue;
      if (c.rng->bernoulli(c.permission)) {
        ++transmitted;
        transmitter_index = i;
        c.flags |= kTransmitted;
      }
    }
    outcome.tally.transmissions += transmitted;
    if (transmitted == 1) {
      ++outcome.tally.successes;
      outcome.winners.push_back(candidates[transmitter_index]);
      contenders[transmitter_index].flags |= kWon;
      --remaining;
    } else if (transmitted > 1) {
      ++outcome.tally.collisions;
    } else {
      ++outcome.tally.idle;
    }
  }
  // Minislots after the candidate pool empties are idle.
  outcome.tally.idle +=
      minislots - outcome.tally.successes - outcome.tally.collisions -
      outcome.tally.idle;

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (contenders[i].flags & kTransmitted) {
      outcome.transmitted.push_back(candidates[i]);
    }
  }
}

/// The same phase into a fresh outcome (and fresh scratch) per call.
template <typename Permission, typename RngOf>
ContentionOutcome run_request_phase(
    const std::vector<common::UserId>& candidates, int minislots,
    Permission&& permission, RngOf&& rng_of) {
  ContentionOutcome outcome;
  std::vector<Contender<std::remove_reference_t<
      std::invoke_result_t<RngOf&, common::UserId>>>>
      contenders;
  run_request_phase(candidates, minislots, permission, rng_of, outcome,
                    contenders);
  return outcome;
}

}  // namespace charisma::mac

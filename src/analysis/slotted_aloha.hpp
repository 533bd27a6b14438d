// Closed-form properties of the slotted request contention (paper §2's
// "Request Contention Model"): per-slot success probability, optimal
// permission probability, and the contender count at which a p-persistent
// phase destabilizes. Used by tests (SlottedAloha.*) to cross-validate the
// simulator's contention phase.
#pragma once

namespace charisma::analysis {

/// P(exactly one of k contenders transmits) with permission probability p:
/// k p (1-p)^(k-1).
double aloha_success_probability(int contenders, double permission);

/// The permission probability maximizing the success probability for k
/// contenders: 1/k.
double optimal_permission(int contenders);

/// Expected winners when `contenders` contend over `minislots` slots with
/// permission `p`, accounting for pool shrinkage as winners drop out
/// (exact recursion over the slot sequence).
double expected_winners(int contenders, int minislots, double permission);

/// The largest contender count for which the per-frame service rate
/// (minislots * success probability) still covers an arrival rate of
/// `arrivals_per_frame` — beyond it the pool drifts to collapse. Returns 0
/// if even one contender cannot be served.
int stable_contender_limit(int minislots, double permission,
                           double arrivals_per_frame);

}  // namespace charisma::analysis

// The base-station request queue (paper §4.5): requests that survive
// contention but fail to get information slots wait here instead of being
// discarded. Baselines serve it first-come-first-served; CHARISMA treats
// its entries as backlog requests ranked by the priority metric. Voice
// entries whose packet deadline has passed are purged (the packet is
// dropped at the device).
//
// Each user has at most one queued request — a device that already holds
// one never contends again until it is served or purged — and push()
// enforces it. The queue indexes its members by user id (members(),
// ascending): the per-frame contention scans skip queued users with one
// merge-walk of that index against the engine's id-sorted roster, and a
// single "already queued?" test (contains()) is a binary search rather
// than a scan of the whole backlog.
#pragma once

#include <span>
#include <vector>

#include "channel/csi.hpp"
#include "common/units.hpp"

namespace charisma::mac {

enum class RequestType { kVoice, kData };

struct PendingRequest {
  common::UserId user = common::kNoUser;
  RequestType type = RequestType::kVoice;
  /// Packets the device asked to transmit (1 for voice; burst backlog for
  /// data, updated as slots are granted).
  int packets_requested = 1;
  common::Time acked_at = 0.0;            ///< when contention succeeded
  common::Time deadline = 0.0;            ///< voice-packet deadline; data: +inf
  channel::CsiEstimate csi{};             ///< last pilot-based estimate
  /// Frames spent waiting since the ACK (the T_w of Eq. (2)).
  int frames_waited = 0;
};

class RequestQueue {
 public:
  /// Appends a request at the tail. Throws std::logic_error naming the
  /// user when that user already has a queued request.
  void push(PendingRequest request);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// The queued requests, oldest first. The mutable view lets a scheduler
  /// rewrite a request's fields in place (CSI, packets_requested) but not
  /// insert or erase: membership changes only through push/remove/purge/
  /// clear, which keep the user index current. Never rewrite `user`.
  std::span<PendingRequest> entries() { return entries_; }
  std::span<const PendingRequest> entries() const { return entries_; }

  /// Whether the user has a queued request: O(log size).
  bool contains(common::UserId user) const;

  /// The queued users in ascending id order: a read-only view of the
  /// membership index, valid until the next push/remove/purge/clear.
  std::span<const common::UserId> members() const { return members_; }

  /// Removes the given user's request (after full service or expiry); a
  /// user with no queued request is a no-op.
  void remove(common::UserId user);

  /// Purges voice requests whose deadline passed. Returns how many were
  /// purged (their packets are accounted as deadline drops by the source).
  int purge_expired_voice(common::Time now);

  /// Increments every entry's waiting-frame counter (call once per frame).
  void age_all();

  void clear() {
    entries_.clear();
    members_.clear();
  }

 private:
  std::vector<PendingRequest> entries_;  ///< FIFO order
  std::vector<common::UserId> members_;  ///< entries_' users, ascending
};

/// The baselines' FCFS service order: `queued` then `winners`, voice
/// requests before any data request (voice outranks data in every protocol
/// of the study, paper §1) and FCFS within each class — a stable
/// voice-first partition of [queued, winners]. Replaces `out`'s contents,
/// so callers reuse one buffer and the steady-state serve path allocates
/// nothing.
void order_voice_first(std::span<const PendingRequest> queued,
                       std::span<const PendingRequest> winners,
                       std::vector<PendingRequest>& out);

}  // namespace charisma::mac

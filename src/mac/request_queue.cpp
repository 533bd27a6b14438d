#include "mac/request_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace charisma::mac {

namespace {
constexpr double kTimeEps = 1e-9;
}

void RequestQueue::push(PendingRequest request) {
  const auto at =
      std::lower_bound(members_.begin(), members_.end(), request.user);
  if (at != members_.end() && *at == request.user) {
    throw std::logic_error("RequestQueue::push: user " +
                           std::to_string(request.user) +
                           " already has a queued request");
  }
  members_.insert(at, request.user);
  entries_.push_back(request);
}

bool RequestQueue::contains(common::UserId user) const {
  const bool queued =
      std::binary_search(members_.begin(), members_.end(), user);
  assert(queued == std::any_of(entries_.begin(), entries_.end(),
                               [user](const PendingRequest& r) {
                                 return r.user == user;
                               }));
  return queued;
}

void RequestQueue::remove(common::UserId user) {
  const auto at = std::lower_bound(members_.begin(), members_.end(), user);
  if (at == members_.end() || *at != user) return;
  members_.erase(at);
  entries_.erase(std::find_if(
      entries_.begin(), entries_.end(),
      [user](const PendingRequest& r) { return r.user == user; }));
}

int RequestQueue::purge_expired_voice(common::Time now) {
  // remove_if applies the predicate exactly once per entry, so each purged
  // request leaves the index exactly once.
  const auto purged = std::erase_if(entries_, [&](const PendingRequest& r) {
    if (r.type != RequestType::kVoice || now + kTimeEps < r.deadline) {
      return false;
    }
    members_.erase(
        std::lower_bound(members_.begin(), members_.end(), r.user));
    return true;
  });
  return static_cast<int>(purged);
}

void RequestQueue::age_all() {
  for (auto& r : entries_) ++r.frames_waited;
}

void order_voice_first(std::span<const PendingRequest> queued,
                       std::span<const PendingRequest> winners,
                       std::vector<PendingRequest>& out) {
  out.clear();
  for (auto type : {RequestType::kVoice, RequestType::kData}) {
    for (const auto& request : queued) {
      if (request.type == type) out.push_back(request);
    }
    for (const auto& request : winners) {
      if (request.type == type) out.push_back(request);
    }
  }
}

}  // namespace charisma::mac

#include "protocols/rmav.hpp"

#include <algorithm>
#include <cassert>

namespace charisma::protocols {

RmavProtocol::RmavProtocol(const mac::ScenarioParams& params)
    : mac::ProtocolEngine(params) {}

void RmavProtocol::on_user_detached(common::UserId id) {
  std::erase(grants_, id);
}

void RmavProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay grants.
  assert(std::find(grants_.begin(), grants_.end(), id) == grants_.end());
}

common::Time RmavProtocol::process_frame() {
  int served_slots = 0;

  // Touch set: last frame's grant holders are the only users this frame
  // reads (RMAV's competitive slot goes through request_phase directly,
  // not run_contention, and contenders' channels are never read
  // during the request itself).
  touch_channels(grants_);

  // Serve the grants won in the previous frame's competitive slot.
  for (common::UserId uid : grants_) {
    auto& u = user(uid);
    if (u.is_voice()) {
      if (u.voice().has_packet()) {
        transmit_voice(u, fixed_phy_.burst());
        ++served_slots;
      }
      // A grant covers exactly one packet; the next packet contends anew.
    } else {
      const int slots = std::min(kPmax, u.data().backlog());
      for (int s = 0; s < slots; ++s) {
        transmit_data(u, fixed_phy_.burst());
      }
      served_slots += slots;
    }
  }
  grants_.clear();

  // The single competitive slot at the frame's tail.
  candidates_.clear();
  for_each_attached([this](mac::MobileUser& u) {
    const bool pending =
        u.is_voice() ? u.voice().has_packet() : u.data().backlog() > 0;
    if (pending && !barring_blocks(u)) candidates_.push_back(u.id());
  });
  const auto& outcome =
      request_phase(candidates_, 1, [this](common::UserId id) {
        return kPermissionProb * user(id).backoff_scale();
      });
  note_contention(outcome.tally);
  // The competitive slot is a full information slot (Fig. 2b).
  settle_contention(outcome, geom_.slot_symbols);
  if (!outcome.winners.empty()) {
    grants_.push_back(outcome.winners.front());
  }

  // Offered: the served slots plus the competitive slot, a full
  // information slot (Fig. 2b) that never carries a packet.
  offer_info_slots(served_slots + 1);

  // Frame duration follows the content: served slots plus the competitive
  // slot, which in RMAV is a full information slot (Fig. 2b — it is "the
  // last slot" of the frame). A fully idle system hops at the nominal
  // frame cadence, which changes nothing observable (nobody is waiting)
  // but avoids spinning on micro-frames.
  if (served_slots == 0 && candidates_.empty()) {
    return geom_.frame_duration;
  }
  return static_cast<double>(served_slots + 1) * geom_.slot_duration();
}

}  // namespace charisma::protocols

// PRMA — Packet Reservation Multiple Access (Goodman et al., 1989), the
// common ancestor of the paper's D-TDMA baselines ("the first improved
// PRMA type of protocol", §3.4). Provided as an extension baseline: the
// frame is information slots only; a device contends by transmitting its
// *packet* directly in an available slot (p-persistent), so a collision
// burns a whole information slot — the cost D-TDMA's dedicated request
// minislots were introduced to avoid. A successful voice transmission
// reserves that slot position for the rest of the talkspurt; data wins
// carry exactly one packet. Fixed-throughput PHY.
//
// Not part of the paper's six-protocol comparison; factory id kPrma.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"
#include "mac/reservation.hpp"

namespace charisma::protocols {

class PrmaProtocol : public mac::ProtocolEngine {
 public:
  /// Information slots per frame; the shared symbol budget fits 11 (no
  /// request or pilot subframes).
  static constexpr int kInfoSlots = 11;

  explicit PrmaProtocol(const mac::ScenarioParams& params);

  std::string name() const override { return "PRMA"; }

  int reservations_held() const { return grid_.occupied_total(); }

 protected:
  common::Time process_frame() override;
  void on_user_detached(common::UserId id) override;
  void on_user_attached(common::UserId id) override;

 private:
  mac::ReservationGrid grid_;
  // Per-frame scratch, reused so an active frame does not allocate it anew:
  // this phase's reservation holders, and one free slot's transmitters.
  std::vector<common::UserId> owners_;
  std::vector<common::UserId> transmitters_;
};

}  // namespace charisma::protocols

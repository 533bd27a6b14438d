// D-TDMA/FR and D-TDMA/VR (paper §3.4/§3.5): the classical improved-PRMA
// dynamic TDMA with a static frame (N_r request minislots + N_i information
// slots) and first-come-first-served assignment — slots are granted
// immediately as each request succeeds, with no view of channel state.
//
//  * FR runs the fixed-throughput PHY: one packet per slot, errors follow
//    the instantaneous channel.
//  * VR runs the variable-throughput adaptive PHY (Kawagishi et al. [14]):
//    each transmission picks its mode from fresh receiver CSI feedback, but
//    the MAC remains CSI-blind — the paper's foil showing that adaptation
//    *without* MAC interaction captures only part of the gain.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"

namespace charisma::protocols {

class DtdmaProtocol : public mac::ProtocolEngine {
 public:
  enum class PhyVariant { kFixedRate, kVariableRate };

  DtdmaProtocol(const mac::ScenarioParams& params, PhyVariant variant);

  std::string name() const override {
    return variant_ == PhyVariant::kFixedRate ? "D-TDMA/FR" : "D-TDMA/VR";
  }

  std::size_t queue_size() const { return queue_.size(); }
  int reservations_held() const { return grid_.occupied_total(); }

 protected:
  common::Time process_frame() override;
  void on_user_detached(common::UserId id) override;
  void on_user_attached(common::UserId id) override;
  std::int64_t pending_request_count() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

 private:
  /// Serves one request (voice: reserve + transmit; data: leftover slots).
  /// Returns true when the request is finished (served or dead) and must
  /// not be re-queued.
  bool serve_request(const mac::PendingRequest& request, int phase,
                     int& free_slots);
  /// What a slot granted to `u` carries: FR's one-packet burst, or VR's
  /// burst for the mode a fresh CSI estimate supports.
  phy::SlotBurst burst_for(mac::MobileUser& u);

  PhyVariant variant_;
  mac::ReservationGrid grid_;
  mac::RequestQueue queue_;
  std::vector<common::UserId> due_;         ///< this phase's reservations
  std::vector<common::UserId> candidates_;  ///< this frame's contenders
  // Reused across frames so the steady-state serve path (queued requests +
  // this frame's winners, voice first) allocates nothing — the frame_alloc
  // pin drives a retransmitting data queue through here.
  std::vector<mac::PendingRequest> winner_scratch_;
  std::vector<mac::PendingRequest> serve_scratch_;
};

}  // namespace charisma::protocols

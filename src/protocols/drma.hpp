// DRMA — Dynamic Reservation Multiple Access (Qiu & Li [19], paper §3.3):
// the frame carries only information slots; before each slot the base
// station announces whether it is assigned. An unassigned slot is
// "converted" into N_x request minislots on the fly, and each successful
// request is served in a later free slot of the same frame (voice winners
// keep that slot position as their reservation). Because conversions only
// happen when slots are idle, the request load is automatically throttled
// at high load — DRMA's built-in stability ("distributed requests
// queueing", §5.1). The fixed-throughput PHY is used.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"

namespace charisma::protocols {

class DrmaProtocol : public mac::ProtocolEngine {
 public:
  /// Information slots per frame (N_k). The DRMA frame has no dedicated
  /// request subframe, so the shared symbol budget fits one more slot than
  /// the CHARISMA layout.
  static constexpr int kInfoSlots = 11;
  /// Request minislots one converted slot yields (N_x).
  static constexpr int kMinislotsPerConversion = 8;

  explicit DrmaProtocol(const mac::ScenarioParams& params);

  std::string name() const override { return "DRMA"; }

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
  mac::ReservationGrid grid_;
  mac::RequestQueue queue_;
  // Per-frame scratch, cleared and refilled every frame but kept across
  // frames so a quiet frame allocates nothing.
  std::vector<mac::PendingRequest> pending_;  ///< requests awaiting a slot
  /// pending_'s users, ascending: queued or won this frame, so skipped by
  /// the conversion scans.
  std::vector<common::UserId> engaged_;
  std::vector<common::UserId> touched_;
  std::vector<common::UserId> candidates_;
};

}  // namespace charisma::protocols

// RAMA — Resource Auction Multiple Access (Amitay & Greenstein [2], paper
// §3.1): instead of random-access contention, every active contender joins
// a digit-by-digit ID auction in each auction slot; the auction
// deterministically yields exactly one winner per slot (collision
// avoidance), so progress is maintained no matter how high the load — the
// paper's exemplar of graceful degradation. Voice users draw IDs from a
// higher range than data users, so any contending voice user outbids all
// data users. The fixed-throughput PHY is used.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"

namespace charisma::protocols {

class RamaProtocol : public mac::ProtocolEngine {
 public:
  /// Auction slots per frame. An auction slot is ~3 minislots long (the
  /// digit rounds), so 4 fit the shared symbol budget. With realistic ID
  /// lengths two contenders never draw the same full ID, so every auction
  /// slot with a bidder resolves exactly one winner.
  static constexpr int kAuctionSlots = 4;

  explicit RamaProtocol(const mac::ScenarioParams& params);

  std::string name() const override { return "RAMA"; }

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
  /// Serves an auction winner / queued request; true when finished.
  bool serve_request(const mac::PendingRequest& request, int phase,
                     int& free_slots);

  mac::ReservationGrid grid_;
  mac::RequestQueue queue_;
  // Per-frame scratch, reused so an active frame does not allocate it anew.
  std::vector<common::UserId> due_;  ///< this phase's reservations
  std::vector<common::UserId> voice_contenders_;
  std::vector<common::UserId> data_contenders_;
  std::vector<mac::PendingRequest> winners_;   ///< this frame's auction wins
  std::vector<mac::PendingRequest> to_serve_;  ///< voice-first service order
};

}  // namespace charisma::protocols

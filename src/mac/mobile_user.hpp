// A mobile device: its service type, traffic source, radio channel (a row
// of its cell's ChannelBank) and a private random stream for MAC-level
// draws (contention permissions, packet-error realizations). All per-user
// randomness is seeded from the scenario seed and the user id, so
// populations are reproducible and protocols see identical worlds.
//
// A user is constructed as a band-resident *shell* — channel row live in
// the cell's bank (the attachment policy needs its pilot), traffic sources
// and MAC stream deferred until the user actually attaches
// (ensure_traffic). A shell is ~a hundred bytes; the
// mt19937_64-backed streams it defers are ~2.5 KB each, which is what
// makes band-local worlds with very large populations affordable. Under
// ScenarioParams::traffic_rng = kCompact the deferred streams themselves
// shrink to ~24 bytes (splitmix64 counters), so even *attached* users stay
// cheap — the remaining per-user cost is the channel row and the sources'
// queues.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>

#include "channel/channel_bank.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mac/scenario.hpp"
#include "traffic/data_source.hpp"
#include "traffic/voice_source.hpp"

namespace charisma::mac {

enum class ServiceType { kVoice, kData };

class MobileUser {
 public:
  /// Adds the user's channel row to `bank` and builds the shell: the
  /// traffic sources and the MAC stream wait for ensure_traffic, and the
  /// user starts absent. `visit` is the per-(user, cell) band-entry counter:
  /// visit 0 draws from the plain scenario seed, visit v > 0 derives a
  /// fresh rebirth seed, so what a re-entering user's row draws depends
  /// only on (seed, id, visit) — never on the presence history of the rest
  /// of the population or on which bank slot the free-list handed back.
  MobileUser(common::UserId id, ServiceType service,
             const ScenarioParams& params, channel::ChannelBank& bank,
             std::uint32_t visit);

  common::UserId id() const { return id_; }
  ServiceType service() const { return service_; }
  bool is_voice() const { return service_ == ServiceType::kVoice; }
  bool is_data() const { return service_ == ServiceType::kData; }

  /// The user's channel: its row in the bank it was constructed on, and
  /// the engine's storage slot for it (slot == id only in a full,
  /// never-released population).
  std::uint32_t slot() const { return slot_; }

  traffic::VoiceSource& voice() { return *voice_; }
  const traffic::VoiceSource& voice() const { return *voice_; }
  traffic::DataSource& data() { return *data_; }
  const traffic::DataSource& data() const { return *data_; }

  common::TrafficRng& rng() { return *rng_; }

  /// Materializes the deferred per-user state: the MAC stream always, the
  /// traffic source only when none exists yet (a handoff adopts the
  /// source from the previous cell first — that continuity wins over a
  /// fresh draw). Seeded from this user's visit-derived seed, so a first
  /// attach draws exactly what the historical constructor drew. Idempotent.
  void ensure_traffic(const ScenarioParams& params);

  // ---- Multi-cell presence (CellularWorld) ----
  // A user holds engine state only in the cells whose band it occupies,
  // and is `present` only in the cell it is attached to. Absent users
  // generate no traffic and never contend — their channel keeps evolving
  // so the attachment policy can measure their pilot.

  bool present() const { return present_; }

  /// Carries the user's service state into this cell on handoff: traffic
  /// sources (talkspurt phase, pending packets, data backlog — the
  /// continuity a handoff must preserve) and the contention backoff scale.
  /// The channel is *not* carried: each cell's link fades independently.
  void adopt_service_state(const MobileUser& other) {
    voice_ = other.voice_
                 ? std::make_unique<traffic::VoiceSource>(*other.voice_)
                 : nullptr;
    data_ = other.data_ ? std::make_unique<traffic::DataSource>(*other.data_)
                        : nullptr;
    backoff_scale_ = other.backoff_scale_;
  }

  /// Drops the in-flight voice packet, if any (lost in transit during a
  /// handoff). Returns the number of packets dropped (0 or 1).
  int drop_pending_voice() {
    if (!voice_ || !voice_->has_packet()) return 0;
    voice_->consume_packet();
    return 1;
  }

  // ---- Contention backoff stabilization ----
  // Slotted-ALOHA-style request phases are bistable: once the contender
  // population exceeds ~1/p, collisions starve everyone (thrashing). Real
  // PRMA deployments stabilize this with multiplicative backoff: a device
  // that transmitted a request and saw no acknowledgment halves its
  // permission scale; a success resets it. The scale multiplies the class
  // permission probability p_v/p_d.

  double backoff_scale() const { return backoff_scale_; }
  void note_contention_success() { backoff_scale_ = 1.0; }
  void note_contention_collision() {
    backoff_scale_ = std::max(backoff_scale_ * 0.5, 1.0 / 64.0);
  }

 private:
  // Presence changes only through the engine, which keeps its roster of
  // attached users in step with this flag.
  friend class ProtocolEngine;
  void set_present(bool present) { present_ = present; }

  double backoff_scale_ = 1.0;
  bool present_ = false;
  common::UserId id_;
  ServiceType service_;
  std::uint32_t slot_;
  std::uint64_t seed_;  // visit-derived scenario seed (visit 0: the plain one)
  std::optional<common::TrafficRng> rng_;
  std::unique_ptr<traffic::VoiceSource> voice_;
  std::unique_ptr<traffic::DataSource> data_;
};

}  // namespace charisma::mac

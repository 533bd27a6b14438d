#include "mac/mobile_user.hpp"

namespace charisma::mac {

namespace {
// Stream-id name spaces so a user's channel, source and MAC draws come from
// decorrelated streams.
constexpr std::uint64_t kChannelStream = 0x1000'0000ULL;
constexpr std::uint64_t kSourceStream = 0x2000'0000ULL;
constexpr std::uint64_t kMacStream = 0x3000'0000ULL;
constexpr std::uint64_t kLinkBudgetStream = 0x5000'0000ULL;
// Per-(user, cell) band re-entry counter stream: visit v > 0 re-seeds the
// user's cell-local randomness from derive_seed(seed, kRebirthStream + v).
constexpr std::uint64_t kRebirthStream = 0xA000'0000ULL;

std::uint64_t visit_seed(std::uint64_t seed, std::uint32_t visit) {
  if (visit == 0) return seed;  // first entry: the historical seed, bit for bit
  return common::derive_seed(seed, kRebirthStream + visit);
}

// The user's radio environment: the shared cell configuration plus this
// device's fixed link-budget offset (position in the cell). The offset is
// a static property of the user, so it always derives from the *plain*
// scenario seed — a band re-entry must not teleport the device.
channel::ChannelConfig user_channel_config(common::UserId id,
                                           const ScenarioParams& params) {
  channel::ChannelConfig cfg = params.channel;
  if (params.snr_spread_db > 0.0) {
    common::RngStream rng(params.seed,
                          kLinkBudgetStream + static_cast<std::uint64_t>(id));
    cfg.mean_snr_db += rng.normal(0.0, params.snr_spread_db);
  }
  return cfg;
}

}  // namespace

MobileUser::MobileUser(common::UserId id, ServiceType service,
                       const ScenarioParams& params,
                       channel::ChannelBank& bank, std::uint32_t visit)
    : id_(id), service_(service), seed_(visit_seed(params.seed, visit)) {
  // The row seed is the first draw of the user's mt19937_64 channel stream.
  slot_ = static_cast<std::uint32_t>(bank.add_user(
      user_channel_config(id, params),
      common::first_mt_draw(seed_,
                            kChannelStream + static_cast<std::uint64_t>(id))));
}

void MobileUser::ensure_traffic(const ScenarioParams& params) {
  if (!rng_.has_value()) {
    rng_.emplace(params.traffic_rng, seed_,
                 kMacStream + static_cast<std::uint64_t>(id_));
  }
  if (voice_ != nullptr || data_ != nullptr) return;  // adopted on handoff
  common::TrafficRng source_rng(params.traffic_rng, seed_,
                                kSourceStream + static_cast<std::uint64_t>(id_));
  if (service_ == ServiceType::kVoice) {
    traffic::VoiceSourceConfig cfg;
    cfg.mean_talkspurt_s = params.mean_talkspurt_s;
    cfg.mean_silence_s = params.mean_silence_s;
    cfg.voice_period = params.geometry.voice_period();
    cfg.deadline = params.geometry.voice_period();
    voice_ = std::make_unique<traffic::VoiceSource>(cfg, std::move(source_rng));
  } else {
    traffic::DataSourceConfig cfg;
    cfg.mean_interarrival_s = params.mean_data_interarrival_s;
    cfg.mean_burst_packets = params.mean_burst_packets;
    cfg.frame_duration = params.geometry.frame_duration;
    cfg.mmpp_rate_ratio = params.data_mmpp_rate_ratio;
    cfg.mmpp_mean_sojourn_s = params.data_mmpp_mean_sojourn_s;
    data_ = std::make_unique<traffic::DataSource>(cfg, std::move(source_rng));
  }
}

}  // namespace charisma::mac

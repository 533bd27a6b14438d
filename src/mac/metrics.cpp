#include "mac/metrics.hpp"

#include <algorithm>

namespace charisma::mac {

namespace {
double safe_div(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void ProtocolMetrics::merge(const ProtocolMetrics& other) {
  frames += other.frames;
  measured_time = std::max(measured_time, other.measured_time);
  voice_generated += other.voice_generated;
  voice_delivered += other.voice_delivered;
  voice_dropped_deadline += other.voice_dropped_deadline;
  voice_error_lost += other.voice_error_lost;
  data_generated += other.data_generated;
  data_delivered += other.data_delivered;
  data_tx_attempts += other.data_tx_attempts;
  data_retransmissions += other.data_retransmissions;
  data_delay_s.merge(other.data_delay_s);
  data_delay_hist.merge(other.data_delay_hist);
  handoffs_in += other.handoffs_in;
  handoffs_out += other.handoffs_out;
  voice_dropped_handoff += other.voice_dropped_handoff;
  attached_user_frames += other.attached_user_frames;
  outage_evictions += other.outage_evictions;
  voice_dropped_outage += other.voice_dropped_outage;
  barring_checks += other.barring_checks;
  barring_barred_voice += other.barring_barred_voice;
  barring_barred_data += other.barring_barred_data;
  barring_factor_voice.merge(other.barring_factor_voice);
  barring_factor_data.merge(other.barring_factor_data);
  interference_db.merge(other.interference_db);
  request_slots += other.request_slots;
  request_successes += other.request_successes;
  request_collisions += other.request_collisions;
  request_idle += other.request_idle;
  info_slots_offered += other.info_slots_offered;
  info_slots_assigned += other.info_slots_assigned;
  info_slots_wasted += other.info_slots_wasted;
  csi_polls += other.csi_polls;
  csi_stale_allocations += other.csi_stale_allocations;
  acks_lost += other.acks_lost;
  users_advanced_frames += other.users_advanced_frames;
  users_skipped_frames += other.users_skipped_frames;
  energy_request_j += other.energy_request_j;
  energy_info_j += other.energy_info_j;
  energy_pilot_j += other.energy_pilot_j;
  energy_wasted_j += other.energy_wasted_j;
  if (per_user_delivered.size() < other.per_user_delivered.size()) {
    per_user_delivered.resize(other.per_user_delivered.size(), 0);
  }
  for (std::size_t i = 0; i < other.per_user_delivered.size(); ++i) {
    per_user_delivered[i] += other.per_user_delivered[i];
  }
}

double ProtocolMetrics::voice_loss_rate() const {
  return safe_div(static_cast<double>(voice_lost()),
                  static_cast<double>(voice_generated));
}

double ProtocolMetrics::voice_drop_rate() const {
  return safe_div(static_cast<double>(voice_dropped_deadline),
                  static_cast<double>(voice_generated));
}

double ProtocolMetrics::voice_error_rate() const {
  return safe_div(static_cast<double>(voice_error_lost),
                  static_cast<double>(voice_generated));
}

double ProtocolMetrics::data_throughput_per_frame() const {
  return safe_div(static_cast<double>(data_delivered),
                  static_cast<double>(frames));
}

double ProtocolMetrics::mean_data_delay_s() const {
  return data_delay_s.mean();
}

double ProtocolMetrics::request_success_ratio() const {
  return safe_div(static_cast<double>(request_successes),
                  static_cast<double>(request_slots));
}

double ProtocolMetrics::slot_utilization() const {
  return safe_div(static_cast<double>(info_slots_assigned),
                  static_cast<double>(info_slots_offered));
}

double ProtocolMetrics::slot_waste_ratio() const {
  return safe_div(static_cast<double>(info_slots_wasted),
                  static_cast<double>(info_slots_offered));
}

double ProtocolMetrics::voice_handoff_drop_rate() const {
  return safe_div(static_cast<double>(voice_dropped_handoff),
                  static_cast<double>(voice_generated));
}

double ProtocolMetrics::voice_outage_drop_rate() const {
  return safe_div(static_cast<double>(voice_dropped_outage),
                  static_cast<double>(voice_generated));
}

double ProtocolMetrics::effective_barring_probability() const {
  return safe_div(
      static_cast<double>(barring_barred_voice + barring_barred_data),
      static_cast<double>(barring_checks));
}

double ProtocolMetrics::mean_attached_users() const {
  return safe_div(static_cast<double>(attached_user_frames),
                  static_cast<double>(frames));
}

double ProtocolMetrics::mean_interference_db() const {
  return interference_db.count() > 0 ? interference_db.mean() : 0.0;
}

double ProtocolMetrics::mean_materialization_stride() const {
  return safe_div(
      static_cast<double>(users_advanced_frames + users_skipped_frames),
      static_cast<double>(users_advanced_frames));
}

double ProtocolMetrics::handoff_rate_hz() const {
  return safe_div(static_cast<double>(handoffs_out), measured_time);
}

double ProtocolMetrics::jain_fairness_index(std::size_t first,
                                            std::size_t last) const {
  if (per_user_delivered.empty() || first > last ||
      last >= per_user_delivered.size()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  const auto n = static_cast<double>(last - first + 1);
  for (std::size_t i = first; i <= last; ++i) {
    const auto x = static_cast<double>(per_user_delivered[i]);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (n * sum_sq);
}

double ProtocolMetrics::total_energy_j() const {
  return energy_request_j + energy_info_j + energy_pilot_j;
}

double ProtocolMetrics::energy_per_delivered_packet_mj() const {
  return 1e3 * safe_div(total_energy_j(),
                        static_cast<double>(voice_delivered + data_delivered));
}

double ProtocolMetrics::energy_waste_ratio() const {
  return safe_div(energy_wasted_j, total_energy_j());
}

}  // namespace charisma::mac

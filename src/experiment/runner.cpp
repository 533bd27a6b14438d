#include "experiment/runner.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace charisma::experiment {

void ReplicatedResult::add(const mac::ProtocolMetrics& metrics) {
  ++replications;
  voice_loss.add(metrics.voice_loss_rate());
  voice_drop.add(metrics.voice_drop_rate());
  voice_error.add(metrics.voice_error_rate());
  data_throughput.add(metrics.data_throughput_per_frame());
  data_delay_s.add(metrics.mean_data_delay_s());
  slot_utilization.add(metrics.slot_utilization());
  slot_waste.add(metrics.slot_waste_ratio());
  request_success.add(metrics.request_success_ratio());
  materialization_stride.add(metrics.mean_materialization_stride());
  voice_loss_pooled.add_many(
      metrics.voice_dropped_deadline + metrics.voice_error_lost +
          metrics.voice_dropped_handoff,
      metrics.voice_generated);
  data_delay_pooled.merge(metrics.data_delay_hist);
}

std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::uint64_t point_key, int rep) {
  // Chain two derivations instead of packing (point_key, rep) into one
  // stream id: `point_key * 1024 + rep` collides as soon as rep >= 1024 or
  // two point keys differ by rep/1024, silently reusing a replication's
  // whole world.
  return common::derive_seed(common::derive_seed(base_seed, point_key),
                             static_cast<std::uint64_t>(rep));
}

ReplicatedResult run_replications(protocols::ProtocolId protocol,
                                  const RunSpec& spec,
                                  std::uint64_t point_key) {
  if (spec.replications < 1) {
    // Zero replications would return an all-zero result that reads like
    // a measured operating point.
    throw std::invalid_argument("run_replications: replications must be >= 1");
  }
  ReplicatedResult result;
  result.protocol = protocols::protocol_name(protocol);
  result.num_voice_users = spec.params.num_voice_users;
  result.num_data_users = spec.params.num_data_users;
  result.request_queue = spec.params.request_queue;

  for (int rep = 0; rep < spec.replications; ++rep) {
    mac::ScenarioParams params = spec.params;
    params.seed = replication_seed(spec.params.seed, point_key, rep);
    auto engine = protocols::make_protocol(protocol, params, spec.charisma);
    const auto& metrics = engine->run(spec.warmup_s, spec.measure_s);
    result.add(metrics);
  }
  return result;
}

}  // namespace charisma::experiment

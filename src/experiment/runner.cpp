#include "experiment/runner.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace charisma::experiment {

common::RatioCounter ReplicatedResult::voice_loss_pooled() const {
  common::RatioCounter pooled;
  for (const auto& run : runs) {
    pooled.add_many(run.voice_lost(), run.voice_generated);
  }
  return pooled;
}

common::Histogram ReplicatedResult::data_delay_pooled() const {
  common::Histogram pooled{mac::ProtocolMetrics::kDelayHistLo,
                           mac::ProtocolMetrics::kDelayHistHi,
                           mac::ProtocolMetrics::kDelayHistBins};
  for (const auto& run : runs) pooled.merge(run.data_delay_hist);
  return pooled;
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

namespace {

// One replication of `world` at `seed`; with `verify`, also the serial
// re-run that must match it bit for bit.
mac::ProtocolMetrics run_world(protocols::ProtocolId protocol,
                               const RunSpec& spec, mac::CellularConfig world,
                               std::uint64_t seed, bool verify) {
  world.params.seed = seed;
  const auto factory = [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(protocol, p, spec.charisma);
  };
  mac::CellularWorld parallel(world, factory);
  parallel.run(spec.warmup_s, spec.measure_s);
  auto metrics = parallel.aggregate_metrics();
  if (!verify) return metrics;
  // The smoke-test teeth: a non-empty window, and the same
  // bit-identical-to-serial guarantee the determinism test pins.
  if (metrics.voice_generated <= 0 && metrics.data_generated <= 0) {
    throw std::runtime_error("verify=1: empty measurement window");
  }
  world.num_threads = 1;
  world.num_shards = 1;
  mac::CellularWorld serial(world, factory);
  serial.run(spec.warmup_s, spec.measure_s);
  if (!(serial.aggregate_metrics() == metrics) ||
      serial.handoffs() != parallel.handoffs()) {
    throw std::runtime_error(
        "verify=1: parallel world metrics diverged from the serial run (" +
        protocols::protocol_name(protocol) + ")");
  }
  return metrics;
}

}  // namespace

ReplicatedResult run_replications(
    protocols::ProtocolId protocol, const RunSpec& spec,
    std::uint64_t point_key, const std::optional<mac::CellularConfig>& world,
    bool verify) {
  if (spec.replications < 1) {
    // Zero replications would return an all-zero result that reads like
    // a measured operating point.
    throw std::invalid_argument("run_replications: replications must be >= 1");
  }
  ReplicatedResult result;
  result.protocol = protocols::protocol_name(protocol);
  result.runs.reserve(static_cast<std::size_t>(spec.replications));
  for (int rep = 0; rep < spec.replications; ++rep) {
    const auto seed = replication_seed(spec.params.seed, point_key, rep);
    if (world) {
      result.runs.push_back(
          run_world(protocol, spec, *world, seed, verify && rep == 0));
      continue;
    }
    mac::ScenarioParams params = spec.params;
    params.seed = seed;
    auto engine = protocols::make_protocol(protocol, params, spec.charisma);
    result.runs.push_back(engine->run(spec.warmup_s, spec.measure_s));
  }
  return result;
}

}  // namespace charisma::experiment

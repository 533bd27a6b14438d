// Capacity planning: how many voice users can a cell admit at a target
// packet-loss QoS? Sweeps the voice population for a chosen protocol and
// reports the capacity at the threshold — the operational question behind
// the paper's Fig. 11 read-offs.
//
//   ./voice_capacity_planning [protocol=charisma] [threshold=0.01]
//                             [data_users=0] [queue=1] [measure=10]
#include <iostream>
#include <string>
#include <vector>

#include "charisma.hpp"

int main(int argc, char** argv) {
  using namespace charisma;

  common::KeyValueConfig config;
  try {
    config = common::KeyValueConfig::from_args(
        std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\nusage: voice_capacity_planning [key=value ...]\n";
    return 1;
  }

  protocols::ProtocolId protocol;
  try {
    protocol = protocols::parse_protocol(
        config.get_string_or("protocol", "charisma"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
  const double threshold = config.get_double_or("threshold", 0.01);

  experiment::SweepConfig sweep;
  sweep.spec.params.num_data_users = config.get_int_or("data_users", 0);
  sweep.spec.params.request_queue = config.get_bool_or("queue", true);
  sweep.spec.warmup_s = config.get_double_or("warmup", 4.0);
  sweep.spec.measure_s = config.get_double_or("measure", 10.0);
  sweep.spec.replications = config.get_int_or("replications", 2);
  sweep.axis = experiment::SweepAxis::kVoiceUsers;
  sweep.x_values = {20, 50, 80, 100, 120, 140, 160, 180};
  sweep.protocols_to_run = {protocol};

  std::cout << "Sweeping voice load for " << protocols::protocol_name(protocol)
            << " (loss threshold " << threshold << ")...\n\n";

  experiment::WorkerPool pool;  // hardware threads
  const auto cells = experiment::run_sweep(sweep, pool);

  const auto metric = [](const experiment::ReplicatedResult& r) {
    return r.voice_loss.mean();
  };
  common::TextTable table("Voice loss versus population");
  table.set_header({"N_v", "loss", "drop", "error", "95% ci"});
  for (const auto& cell : cells) {
    table.add_row({std::to_string(cell.x),
                   common::TextTable::sci(cell.result.voice_loss.mean(), 2),
                   common::TextTable::sci(cell.result.voice_drop.mean(), 2),
                   common::TextTable::sci(cell.result.voice_error.mean(), 2),
                   common::TextTable::sci(
                       common::proportion_half_width(
                           cell.result.voice_loss_pooled),
                       1)});
  }
  table.print(std::cout);

  const auto capacity = experiment::capacity_at_threshold(
      experiment::series_of(cells, protocol, metric), threshold);
  std::cout << "\nCapacity at " << threshold * 100 << "% loss: ";
  if (capacity) {
    std::cout << static_cast<int>(*capacity) << " voice users\n";
  } else {
    std::cout << "below the smallest swept population\n";
  }
  return 0;
}

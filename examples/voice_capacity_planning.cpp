// Capacity planning: how many voice users can a cell admit at a target
// packet-loss QoS? Sweeps the voice population for a chosen protocol and
// reports the capacity at the threshold — the operational question behind
// the paper's Fig. 11 read-offs.
//
//   ./voice_capacity_planning [protocol=charisma] [threshold=0.01]
//                             [data_users=0] [queue=1] [warmup=4]
//                             [measure=10] [replications=2]
//
// threshold= is the loss QoS, in (0, 1); the other knobs are
// charisma_sim's (experiment::parse_scenario), with protocol= naming one
// protocol.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;

  std::vector<std::string> args(argv + 1, argv + argc);
  const auto given = common::KeyValueConfig::from_args(args);
  given.reject_unknown({"protocol", "threshold", "data_users", "queue",
                        "warmup", "measure", "replications"});
  const double threshold = experiment::read_double(
      given, "threshold", 0.01, experiment::Domain{0.0, 1.0, true, true});
  std::erase_if(args, [](const std::string& arg) {
    return arg.starts_with("threshold=");
  });
  args.insert(args.begin(), {"measure=10", "replications=2", "sweep=voice",
                              "x=20,50,80,100,120,140,160,180"});
  const auto scenario =
      experiment::parse_scenario(common::KeyValueConfig::from_args(args));
  if (scenario.protocols.size() != 1) {
    throw std::invalid_argument("protocol= must name one protocol");
  }
  const auto protocol = scenario.protocols.front();

  std::cout << "Sweeping voice load for " << protocols::protocol_name(protocol)
            << " (loss threshold " << threshold << ")...\n\n";

  experiment::WorkerPool pool;  // hardware threads
  const auto cells = experiment::run_sweep(*scenario.sweep, pool);

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
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

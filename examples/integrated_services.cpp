// Integrated voice + data services — the paper's motivating scenario
// (Sec. 1): a cell carrying phone calls while nomadic users move files.
// Shows how each service class fares under CHARISMA as the file-transfer
// load grows, and what the channel-capacity-fair extension (Sec. 6 / [22])
// changes for cell-edge users.
//
//   ./integrated_services [voice_users=90] [queue=1] [fairness=0]
//                         [seed=1] [warmup=4] [measure=10]
//
// The knobs are charisma_sim's (experiment::parse_scenario).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "charisma.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;

  std::vector<std::string> args(argv + 1, argv + argc);
  common::KeyValueConfig::from_args(args).reject_unknown(
      {"voice_users", "queue", "fairness", "seed", "warmup", "measure"});
  args.insert(args.begin(), {"voice_users=90", "measure=10"});
  const auto spec =
      experiment::parse_scenario(common::KeyValueConfig::from_args(args))
          .spec;
  const bool fairness =
      spec.charisma.fairness != core::FairnessMode::kNone;

  std::cout << "CHARISMA cell: " << spec.params.num_voice_users
            << " voice users, growing file-transfer load, request queue "
            << (spec.params.request_queue ? "on" : "off")
            << ", capacity-fair scheduling " << (fairness ? "on" : "off")
            << "\n\n";

  common::TextTable table("Service quality as data load grows");
  table.set_header({"data users", "voice loss", "data tput/frame",
                    "data delay (s)", "slot util", "csi polls/frame"});
  for (int data_users : {0, 10, 20, 40, 60}) {
    mac::ScenarioParams params = spec.params;
    params.num_data_users = data_users;
    core::CharismaProtocol proto(params, spec.charisma);
    const auto& m = proto.run(spec.warmup_s, spec.measure_s);
    table.add_row({std::to_string(data_users),
                   common::TextTable::sci(m.voice_loss_rate(), 2),
                   common::TextTable::num(m.data_throughput_per_frame(), 2),
                   common::TextTable::num(m.mean_data_delay_s(), 3),
                   common::TextTable::num(m.slot_utilization(), 3),
                   common::TextTable::num(
                       static_cast<double>(m.csi_polls) /
                           static_cast<double>(std::max<std::int64_t>(
                               1, m.frames)),
                       2)});
  }
  table.print(std::cout);

  std::cout << "\nNote how voice QoS is insulated from the data load (the\n"
               "priority offset V plus deadline urgency), while data rides\n"
               "the leftover capacity at CSI-selected high modes.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

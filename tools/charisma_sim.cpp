// charisma_sim — command-line front-end to the simulation platform.
//
// Run one protocol (or all six) on a fully parameterized scenario, or
// sweep a load axis, and emit a table or CSV. Examples:
//
//   charisma_sim protocol=charisma voice_users=100 data_users=10
//   charisma_sim protocol=all voice_users=80 queue=0 measure=20
//   charisma_sim sweep=voice x=40,80,120,160 protocol=all csv=out.csv
//   charisma_sim protocol=charisma fairness=1 csi_refresh=0 doppler_hz=160
//   charisma_sim protocol=all cells=3 kmh=90 handoff_hysteresis_db=4
//
// Every scenario knob is a key=value argument, parsed by
// experiment::parse_scenario; run with `help=1` for the full list.
// `cells=2` (or more) switches to the mobility-driven multi-cell world:
// users move, path loss tracks their position, and the
// strongest-pilot-with-hysteresis policy hands them off between per-cell
// protocol engines.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

namespace {

using namespace charisma;

// The csv= path ("" when absent), checked after every other knob and
// before any simulation runs, so a path that cannot be written fails up
// front rather than after the run. Append mode creates a missing file and
// leaves an existing one for the table to overwrite.
std::string csv_path_from(const common::KeyValueConfig& config) {
  if (!config.contains("csv")) return "";
  const std::string path = config.get_string_or("csv", "");
  if (path.empty()) throw std::invalid_argument("csv= needs a file path");
  if (!std::ofstream(path, std::ios::app)) {
    throw std::invalid_argument("csv= cannot open '" + path +
                                "' for writing");
  }
  return path;
}

// Prints the table and writes it to `csv` when a path was given; returns
// the exit status.
int emit(const common::TextTable& table, const std::string& csv) {
  table.print(std::cout);
  if (csv.empty()) return 0;
  if (!table.write_csv(csv)) {
    std::cerr << "could not write " << csv << '\n';
    return 1;
  }
  std::cout << "\nwrote " << csv << '\n';
  return 0;
}

void add_cell_row(common::TextTable& table, const std::string& label,
                  const experiment::ReplicatedResult& result) {
  using M = mac::ProtocolMetrics;
  table.add_row({label, result.protocol,
                 common::TextTable::sci(result.mean(&M::voice_loss_rate), 3),
                 common::TextTable::sci(result.mean(&M::voice_error_rate), 3),
                 common::TextTable::num(
                     result.mean(&M::data_throughput_per_frame), 2),
                 common::TextTable::num(result.mean(&M::mean_data_delay_s), 3),
                 common::TextTable::num(result.mean(&M::slot_utilization), 3),
                 common::TextTable::num(
                     result.mean(&M::mean_materialization_stride), 2)});
}

void add_world_row(common::TextTable& table,
                   const experiment::ReplicatedResult& result) {
  using M = mac::ProtocolMetrics;
  table.add_row({result.protocol,
                 common::TextTable::sci(result.mean(&M::voice_loss_rate), 3),
                 common::TextTable::sci(result.mean(&M::voice_error_rate), 3),
                 common::TextTable::sci(
                     result.mean(&M::voice_handoff_drop_rate), 3),
                 common::TextTable::num(result.mean(&M::handoff_rate_hz), 2),
                 common::TextTable::num(
                     result.mean(&M::data_throughput_per_frame), 2),
                 common::TextTable::num(result.mean(&M::mean_data_delay_s), 3),
                 common::TextTable::num(
                     result.mean(&M::mean_interference_db), 2),
                 common::TextTable::num(
                     result.mean(&M::mean_materialization_stride), 2)});
}

}  // namespace

int main(int argc, char** argv) {
  common::KeyValueConfig config;
  try {
    config = common::KeyValueConfig::from_args(
        std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\nRun with help=1 for usage.\n";
    return 1;
  }

  try {
    if (config.get_bool_or("help", false)) {
      std::cout << "charisma_sim key=value ...\n\n"
                << experiment::scenario_help();
      return 0;
    }
    const auto scenario = experiment::parse_scenario(config);
    const std::string csv = csv_path_from(config);

    if (scenario.world) {
      common::TextTable table("charisma_sim multi-cell mobility results");
      table.set_header({"protocol", "voice loss", "voice err",
                        "handoff drop", "handoffs/s", "data tput/frame",
                        "data delay (s)", "interf (dB)", "chan stride"});
      for (auto id : scenario.protocols) {
        add_world_row(table, experiment::run_replications(
                                 id, scenario.spec, /*point_key=*/0,
                                 scenario.world, scenario.verify));
      }
      return emit(table, csv);
    }

    common::TextTable table("charisma_sim results");
    table.set_header({"x", "protocol", "voice loss", "voice err",
                      "data tput/frame", "data delay (s)", "slot util",
                      "chan stride"});
    if (scenario.sweep) {
      experiment::WorkerPool pool;  // hardware threads
      for (const auto& cell : experiment::run_sweep(*scenario.sweep, pool)) {
        add_cell_row(table, std::to_string(cell.x), cell.result);
      }
    } else {
      for (auto id : scenario.protocols) {
        add_cell_row(table, "-",
                     experiment::run_replications(id, scenario.spec));
      }
    }

    return emit(table, csv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

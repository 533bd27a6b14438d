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

void run_cellular(const mac::CellularConfig& world_cfg, bool verify,
                  const experiment::RunSpec& spec,
                  const std::vector<protocols::ProtocolId>& protocol_list,
                  common::TextTable& table) {
  for (auto id : protocol_list) {
    common::Accumulator loss, err, handoff_drop, tput, delay, handoff_hz,
        interference, stride;
    for (int rep = 0; rep < spec.replications; ++rep) {
      auto cfg = world_cfg;
      cfg.params.seed =
          experiment::replication_seed(spec.params.seed, /*point=*/0, rep);
      const auto factory = [&](const mac::ScenarioParams& p) {
        return protocols::make_protocol(id, p, spec.charisma);
      };
      mac::CellularWorld world(cfg, factory);
      world.run(spec.warmup_s, spec.measure_s);
      const auto m = world.aggregate_metrics();
      if (verify && rep == 0) {
        // The smoke-test teeth: a non-empty window, and the same
        // bit-identical-to-serial guarantee the determinism test pins.
        if (m.voice_generated <= 0 && m.data_generated <= 0) {
          throw std::runtime_error("verify=1: empty measurement window");
        }
        auto serial_cfg = cfg;
        serial_cfg.num_threads = 1;
        serial_cfg.num_shards = 1;
        mac::CellularWorld serial(serial_cfg, factory);
        serial.run(spec.warmup_s, spec.measure_s);
        if (!(serial.aggregate_metrics() == m) ||
            serial.handoffs() != world.handoffs()) {
          throw std::runtime_error(
              "verify=1: parallel world metrics diverged from the serial "
              "run (" + std::string(protocols::protocol_name(id)) + ")");
        }
      }
      loss.add(m.voice_loss_rate());
      err.add(m.voice_error_rate());
      handoff_drop.add(m.voice_handoff_drop_rate());
      tput.add(m.data_throughput_per_frame());
      delay.add(m.mean_data_delay_s());
      handoff_hz.add(m.handoff_rate_hz());
      interference.add(m.mean_interference_db());
      stride.add(m.mean_materialization_stride());
    }
    table.add_row({protocols::protocol_name(id),
                   common::TextTable::sci(loss.mean(), 3),
                   common::TextTable::sci(err.mean(), 3),
                   common::TextTable::sci(handoff_drop.mean(), 3),
                   common::TextTable::num(handoff_hz.mean(), 2),
                   common::TextTable::num(tput.mean(), 2),
                   common::TextTable::num(delay.mean(), 3),
                   common::TextTable::num(interference.mean(), 2),
                   common::TextTable::num(stride.mean(), 2)});
  }
}

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

void add_result_row(common::TextTable& table, const std::string& label,
                    const experiment::ReplicatedResult& result) {
  table.add_row({label, result.protocol,
                 common::TextTable::sci(result.voice_loss.mean(), 3),
                 common::TextTable::sci(result.voice_error.mean(), 3),
                 common::TextTable::num(result.data_throughput.mean(), 2),
                 common::TextTable::num(result.data_delay_s.mean(), 3),
                 common::TextTable::num(result.slot_utilization.mean(), 3),
                 common::TextTable::num(result.materialization_stride.mean(),
                                        2)});
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
      run_cellular(*scenario.world, scenario.verify, scenario.spec,
                   scenario.protocols, table);
      return emit(table, csv);
    }

    common::TextTable table("charisma_sim results");
    table.set_header({"x", "protocol", "voice loss", "voice err",
                      "data tput/frame", "data delay (s)", "slot util",
                      "chan stride"});
    if (scenario.sweep) {
      experiment::WorkerPool pool;  // hardware threads
      for (const auto& cell : experiment::run_sweep(*scenario.sweep, pool)) {
        add_result_row(table, std::to_string(cell.x), cell.result);
      }
    } else {
      for (auto id : scenario.protocols) {
        const auto result = experiment::run_replications(id, scenario.spec);
        add_result_row(table, "-", result);
      }
    }

    return emit(table, csv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

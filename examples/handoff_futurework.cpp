// Future work (paper Sec. 6): "when a nomadic user travels into the range
// of some other base stations, to which new base station should the user
// attach, from a channel quality point of view?"
//
// This used to be a pilot-level side study; it now runs on the real stack:
// a mobility-driven CellularWorld with one full protocol engine per cell,
// distance-based path loss feeding each link's mean SNR, and the
// strongest-filtered-pilot-with-hysteresis rule handing users (and their
// talkspurts, backlogs and backoff state) off between base stations. The
// no-handoff baseline pins every user to its starting cell via an
// unreachable hysteresis margin.
//
//   ./handoff_futurework [protocol=charisma] [cells=2] [kmh=60]
//                        [handoff_hysteresis_db=4] [voice_users=40]
//                        [data_users=5] [warmup=2] [measure=20]
//
// The knobs, and so the world, are charisma_sim's
// (experiment::parse_scenario); protocol= names one protocol.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;

  std::vector<std::string> args(argv + 1, argv + argc);
  common::KeyValueConfig::from_args(args).reject_unknown(
      {"protocol", "cells", "kmh", "handoff_hysteresis_db", "voice_users",
       "data_users", "seed", "shadow_sigma_db", "mean_snr_db", "warmup",
       "measure"});
  args.insert(args.begin(),
              {"cells=2", "kmh=60", "voice_users=40", "data_users=5",
               "shadow_sigma_db=6", "warmup=2", "measure=20"});
  const auto config = common::KeyValueConfig::from_args(args);
  const auto scenario = experiment::parse_scenario(config);
  if (!scenario.world) {
    throw std::invalid_argument(
        "cells= must be >= 2: the handoff study moves users between cells");
  }
  if (scenario.protocols.size() != 1) {
    throw std::invalid_argument("protocol= must name one protocol");
  }
  const auto protocol = scenario.protocols.front();
  const mac::CellularConfig& cfg = *scenario.world;
  const auto& spec = scenario.spec;

  std::cout << "Handoff future-work demo: " << cfg.num_cells << " cells, "
            << protocols::protocol_name(protocol) << ", "
            << cfg.params.num_voice_users << " voice + "
            << cfg.params.num_data_users << " data users at "
            << *config.get_double("kmh") << " km/h, hysteresis "
            << cfg.handoff_hysteresis_db << " dB, " << spec.measure_s
            << " s\n\n";

  const auto factory = [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(protocol, p, spec.charisma);
  };
  const auto run_world = [&](double hysteresis_db) {
    auto world_cfg = cfg;
    world_cfg.handoff_hysteresis_db = hysteresis_db;
    mac::CellularWorld world(world_cfg, factory);
    world.run(spec.warmup_s, spec.measure_s);
    return std::pair{world.handoffs(), world.aggregate_metrics()};
  };

  // An unreachable margin = static attachment (the no-handoff baseline).
  const auto [static_handoffs, static_m] = run_world(1e9);
  const auto [adaptive_handoffs, adaptive_m] =
      run_world(cfg.handoff_hysteresis_db);

  common::TextTable table("Attachment policy comparison (full MAC stack)");
  table.set_header({"policy", "voice loss", "err component",
                    "handoff drops", "handoffs", "data tput/frame"});
  table.add_row({"static (initial cell)",
                 common::TextTable::sci(static_m.voice_loss_rate(), 3),
                 common::TextTable::sci(static_m.voice_error_rate(), 3),
                 std::to_string(static_m.voice_dropped_handoff),
                 std::to_string(static_handoffs),
                 common::TextTable::num(static_m.data_throughput_per_frame(),
                                        2)});
  table.add_row({"strongest pilot + hysteresis",
                 common::TextTable::sci(adaptive_m.voice_loss_rate(), 3),
                 common::TextTable::sci(adaptive_m.voice_error_rate(), 3),
                 std::to_string(adaptive_m.voice_dropped_handoff),
                 std::to_string(adaptive_handoffs),
                 common::TextTable::num(
                     adaptive_m.data_throughput_per_frame(), 2)});
  table.print(std::cout);

  std::cout
      << "\nA nomadic user drifting away from its cell sinks into the\n"
         "path-loss floor under static attachment; channel-quality handoff\n"
         "trades a small in-transit drop cost for a fresh link — and the\n"
         "protocol carries reservations/backlog state across the move.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

// Ablation — the Sec. 4.4 CSI refresh mechanism: poll budget N_b swept at
// high Doppler (where estimates stale fastest) on a loaded cell. Quantifies
// how many pilot slots per frame the refresh needs to buy back the error
// losses of allocations made on stale CSI.
//
//   ./ablation_csi_refresh [warmup=4] [measure=12] [replications=2]
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  const auto args =
      bench::knobs(argc, argv, {"warmup", "measure", "replications"});
  auto spec = bench::standard_spec(args, /*default_reps=*/2);
  bench::print_banner("Ablation: CSI refresh poll budget N_b",
                      "Kwok & Lau, Sec. 4.4 (polling mechanism)");

  spec.params.num_voice_users = 130;
  spec.params.request_queue = true;
  spec.params.channel.doppler_hz = 160.0;  // ~80 km/h class
  spec.params.seed = 4;

  common::TextTable table(
      "CHARISMA at N_v = 130 (queue on, 160 Hz Doppler) versus poll budget");
  table.set_header({"N_b (polls/frame)", "voice loss", "voice err",
                    "csi polls/frame", "stale allocations"});
  using M = mac::ProtocolMetrics;
  for (int budget : {0, 2, 4, 8, 12}) {
    spec.charisma.csi_poll_budget = budget;  // 0: no refresh at all
    const auto result =
        experiment::run_replications(protocols::ProtocolId::kCharisma, spec);
    table.add_row(
        {std::to_string(budget),
         common::TextTable::sci(result.mean(&M::voice_loss_rate), 2),
         common::TextTable::sci(result.mean(&M::voice_error_rate), 2),
         common::TextTable::num(result.mean([](const M& m) {
           return static_cast<double>(m.csi_polls) /
                  static_cast<double>(m.frames);
         }), 2),
         common::TextTable::num(result.mean(&M::csi_stale_ratio), 4)});
  }
  table.print(std::cout);
  std::cout
      << "\nReading: with no polling every backlog allocation runs on stale\n"
      << "CSI (mode mismatch -> error losses); a handful of pilot slots per\n"
      << "frame buys back most of the loss — the paper's N_b sizing.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

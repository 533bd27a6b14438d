// Ablation — the Sec. 4.4 CSI refresh mechanism: poll budget N_b swept at
// high Doppler (where estimates stale fastest) on a loaded cell. Quantifies
// how many pilot slots per frame the refresh needs to buy back the error
// losses of allocations made on stale CSI.
#include <iostream>

#include "bench_support.hpp"

int main() try {
  using namespace charisma;
  bench::print_banner("Ablation: CSI refresh poll budget N_b",
                      "Kwok & Lau, Sec. 4.4 (polling mechanism)");

  const auto spec = bench::standard_spec(/*default_reps=*/2);

  common::TextTable table(
      "CHARISMA at N_v = 130 (queue on, 160 Hz Doppler) versus poll budget");
  table.set_header({"N_b (polls/frame)", "voice loss", "voice err",
                    "csi polls/frame", "stale allocations"});
  for (int budget : {0, 2, 4, 8, 12}) {
    common::Accumulator loss, err, polls, stale;
    for (int rep = 0; rep < spec.replications; ++rep) {
      mac::ScenarioParams params = spec.params;
      params.num_voice_users = 130;
      params.request_queue = true;
      params.channel.doppler_hz = 160.0;  // ~80 km/h class
      params.seed = experiment::replication_seed(4, 0, rep);
      core::CharismaOptions options;
      options.csi_poll_budget = budget;  // 0: no refresh at all
      core::CharismaProtocol proto(params, options);
      const auto& m = proto.run(spec.warmup_s, spec.measure_s);
      loss.add(m.voice_loss_rate());
      err.add(m.voice_error_rate());
      polls.add(static_cast<double>(m.csi_polls) /
                static_cast<double>(m.frames));
      stale.add(m.info_slots_assigned > 0
                    ? static_cast<double>(m.csi_stale_allocations) /
                          static_cast<double>(m.info_slots_assigned)
                    : 0.0);
    }
    table.add_row({std::to_string(budget),
                   common::TextTable::sci(loss.mean(), 2),
                   common::TextTable::sci(err.mean(), 2),
                   common::TextTable::num(polls.mean(), 2),
                   common::TextTable::num(stale.mean(), 4)});
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

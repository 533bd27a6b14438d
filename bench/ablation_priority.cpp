// Ablation — the Eq. (2) priority weights. The paper notes the alpha /
// gamma / V knobs "reflect the relative importance of urgency, channel
// condition, and traffic type" but reports no sweep; this bench fills that
// gap: each term is zeroed in turn on a mixed voice+data scenario.
#include <iostream>

#include "bench_support.hpp"

int main() try {
  using namespace charisma;
  bench::print_banner("Ablation: CHARISMA priority metric (Eq. 2)",
                      "Kwok & Lau, Sec. 4.3 (design knobs)");

  auto spec = bench::standard_spec(/*default_reps=*/2);
  spec.params.num_voice_users = 110;
  spec.params.num_data_users = 20;
  spec.params.request_queue = true;
  spec.params.seed = 3;

  struct Variant {
    const char* name;
    core::PriorityWeights weights;
  };
  std::vector<Variant> variants;
  variants.push_back({"full metric (defaults)", core::PriorityWeights{}});
  {
    core::PriorityWeights w;
    w.alpha_voice = w.alpha_data = 0.0;
    variants.push_back({"no CSI term (alpha = 0)", w});
  }
  {
    core::PriorityWeights w;
    w.gamma_voice = w.gamma_data = 0.0;
    variants.push_back({"no urgency/waiting term (gamma = 0)", w});
  }
  {
    core::PriorityWeights w;
    w.voice_offset = 0.0;
    variants.push_back({"no voice offset (V = 0)", w});
  }
  {
    core::PriorityWeights w;
    w.alpha_voice = w.alpha_data = 3.0;
    variants.push_back({"CSI-heavy (alpha = 3)", w});
  }
  {
    core::PriorityWeights w;
    w.gamma_data = 0.2;
    variants.push_back({"waiting-heavy data (gamma_d = 0.2)", w});
  }

  common::TextTable table(
      "Priority-term ablation, N_v = 110, N_d = 20, with queue");
  table.set_header({"variant", "voice loss", "voice err", "data tput/frame",
                    "data delay (s)"});
  using M = mac::ProtocolMetrics;
  for (const auto& variant : variants) {
    spec.charisma.priority = variant.weights;
    const auto result =
        experiment::run_replications(protocols::ProtocolId::kCharisma, spec);
    table.add_row(
        {variant.name,
         common::TextTable::sci(result.mean(&M::voice_loss_rate), 2),
         common::TextTable::sci(result.mean(&M::voice_error_rate), 2),
         common::TextTable::num(result.mean(&M::data_throughput_per_frame), 2),
         common::TextTable::num(result.mean(&M::mean_data_delay_s), 3)});
  }
  table.print(std::cout);
  std::cout
      << "\nReading: dropping the CSI term forfeits the selection-diversity\n"
      << "gain (higher loss/lower throughput); dropping urgency sacrifices\n"
      << "deadline packets; dropping V lets data displace voice.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

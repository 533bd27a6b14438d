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

  const auto spec = bench::standard_spec(/*default_reps=*/2);

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
  for (const auto& variant : variants) {
    common::Accumulator loss, err, tput, delay;
    for (int rep = 0; rep < spec.replications; ++rep) {
      mac::ScenarioParams params = spec.params;
      params.num_voice_users = 110;
      params.num_data_users = 20;
      params.request_queue = true;
      params.seed = experiment::replication_seed(3, 0, rep);
      core::CharismaOptions options;
      options.priority = variant.weights;
      core::CharismaProtocol proto(params, options);
      const auto& m = proto.run(spec.warmup_s, spec.measure_s);
      loss.add(m.voice_loss_rate());
      err.add(m.voice_error_rate());
      tput.add(m.data_throughput_per_frame());
      delay.add(m.mean_data_delay_s());
    }
    table.add_row({variant.name, common::TextTable::sci(loss.mean(), 2),
                   common::TextTable::sci(err.mean(), 2),
                   common::TextTable::num(tput.mean(), 2),
                   common::TextTable::num(delay.mean(), 3)});
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

// Fig. 12 — data throughput (packets successfully received per frame)
// versus the number of data users, six panels ({without, with} request
// queue x N_v in {0, 10, 20}), all six protocols.
#include <iostream>

#include "bench_support.hpp"

int main() try {
  using namespace charisma;
  bench::print_banner("Fig. 12: data throughput against traffic load",
                      "Kwok & Lau, Fig. 12a-f (six panels, six protocols)");

  experiment::WorkerPool pool(bench::standard_threads());
  const auto metric = [](const experiment::ReplicatedResult& r) {
    return r.data_throughput.mean();
  };

  struct Panel {
    char label;
    bool queue;
    int voice_users;
  };
  const Panel panels[] = {
      {'a', false, 0},  {'b', true, 0},  {'c', false, 10},
      {'d', true, 10},  {'e', false, 20}, {'f', true, 20},
  };

  for (const auto& panel : panels) {
    experiment::SweepConfig config;
    config.spec = bench::standard_spec(/*default_reps=*/1);
    config.spec.params.num_voice_users = panel.voice_users;
    config.spec.params.request_queue = panel.queue;
    config.axis = experiment::SweepAxis::kDataUsers;
    config.x_values = {10, 25, 40, 60, 80, 110, 140};
    config.protocols_to_run = protocols::all_protocols();

    const auto cells = experiment::run_sweep(config, pool);
    const std::string title =
        std::string("Fig. 12") + panel.label +
        ": data packets delivered per frame, " +
        (panel.queue ? "with" : "without") + " request queue, N_v = " +
        std::to_string(panel.voice_users);
    const auto table = experiment::figure_table(
        title, "N_d", cells, config.protocols_to_run, metric,
        [](double v) { return common::TextTable::num(v, 2); });
    table.print(std::cout);
    bench::maybe_write_csv(table, std::string("fig12") + panel.label);
    std::cout << '\n';
  }

  std::cout
      << "Shape checks versus the paper:\n"
      << "  * Ranking at saturation: CHARISMA > D-TDMA/VR > DRMA > RAMA >\n"
      << "    D-TDMA/FR > RMAV (paper Sec. 5.2).\n"
      << "  * The fixed-PHY protocols cap at ~1 packet/slot; the adaptive\n"
      << "    ones scale with the mode ladder, CHARISMA highest thanks to\n"
      << "    CSI-ranked packing.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

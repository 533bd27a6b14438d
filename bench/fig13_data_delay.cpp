// Fig. 13 — mean data delay versus the number of data users, six panels
// ({without, with} request queue x N_v in {0, 10, 20}), all six protocols,
// plus the QoS capacity read-off at the paper's (1 s, 0.25/user/frame)
// operating point.
#include <iostream>

#include "bench_support.hpp"

int main() try {
  using namespace charisma;
  bench::print_banner("Fig. 13: data delay against traffic load",
                      "Kwok & Lau, Fig. 13a-f (six panels, six protocols)");

  experiment::WorkerPool pool(bench::standard_threads());
  const auto delay_metric = [](const experiment::ReplicatedResult& r) {
    return r.data_delay_s.mean();
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
        std::string("Fig. 13") + panel.label + ": mean data delay (s), " +
        (panel.queue ? "with" : "without") + " request queue, N_v = " +
        std::to_string(panel.voice_users);
    const auto table = experiment::figure_table(
        title, "N_d", cells, config.protocols_to_run, delay_metric,
        [](double v) { return common::TextTable::num(v, 3); });
    table.print(std::cout);
    bench::maybe_write_csv(table, std::string("fig13") + panel.label);

    // Delay *tail* (95th percentile) from the pooled histogram — the mean
    // hides the retransmission tail the QoS bound actually cares about.
    const auto p95_table = experiment::figure_table(
        "  95th-percentile data delay (s)", "N_d", cells,
        config.protocols_to_run,
        [](const experiment::ReplicatedResult& r) {
          return r.data_delay_pooled.quantile(0.95);
        },
        [](double v) { return common::TextTable::num(v, 3); });
    p95_table.print(std::cout);
    for (const auto& cell : cells) {
      const auto warning = experiment::histogram_clip_warning(
          cell.result.data_delay_pooled,
          cell.result.protocol + " @ N_d=" + std::to_string(cell.x));
      if (warning) std::cout << "  " << *warning << '\n';
    }

    // The paper reads QoS capacity at (delay <= 1 s, throughput >=
    // 0.25/user/frame); the delay bound binds first in every panel.
    experiment::capacity_table(
        "  QoS capacity read-off (delay <= 1 s)", cells,
        config.protocols_to_run, delay_metric, 1.0, "1 s mean delay")
        .print(std::cout);
    std::cout << '\n';
  }

  std::cout
      << "Shape checks versus the paper:\n"
      << "  * Delay ranking mirrors the throughput ranking: CHARISMA lowest,\n"
      << "    RMAV highest/unstable.\n"
      << "  * At the (1 s, 0.25) QoS point CHARISMA carries ~1.5x the data\n"
      << "    users of D-TDMA/VR and ~3x RAMA/DRMA (paper Sec. 5.2).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

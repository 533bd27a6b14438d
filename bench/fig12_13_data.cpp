// Figs. 12 and 13 — data throughput (packets successfully received per
// frame) and mean data delay versus the number of data users, six panels
// each ({without, with} request queue x N_v in {0, 10, 20}), all six
// protocols, plus Fig. 13's QoS capacity read-off at the paper's (1 s,
// 0.25/user/frame) operating point. Both figures read the same data-axis
// sweep, so each panel's sweep runs once.
//
//   ./fig12_13_data [warmup=4] [measure=12] [replications=1] [threads=0]
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  const auto args = bench::knobs(
      argc, argv, {"warmup", "measure", "replications", "threads"});
  const auto spec = bench::standard_spec(args, /*default_reps=*/1);
  const unsigned threads = bench::standard_threads(args);
  bench::print_banner(
      "Figs. 12-13: data throughput and delay against traffic load",
      "Kwok & Lau, Figs. 12a-f and 13a-f (six panels each, six protocols)");

  experiment::WorkerPool pool(threads);
  using M = mac::ProtocolMetrics;
  const auto throughput_metric = [](const experiment::ReplicatedResult& r) {
    return r.mean(&M::data_throughput_per_frame);
  };
  const auto delay_metric = [](const experiment::ReplicatedResult& r) {
    return r.mean(&M::mean_data_delay_s);
  };
  const auto fixed = [](int digits) {
    return [digits](double v) { return common::TextTable::num(v, digits); };
  };

  struct Panel {
    char label;
    bool queue;
    int voice_users;
    std::vector<experiment::SweepCell> cells;
  };
  Panel panels[] = {
      {'a', false, 0, {}},  {'b', true, 0, {}},  {'c', false, 10, {}},
      {'d', true, 10, {}},  {'e', false, 20, {}}, {'f', true, 20, {}},
  };
  const auto& protocols_order = protocols::all_protocols();
  for (auto& panel : panels) {
    experiment::SweepConfig config;
    config.spec = spec;
    config.spec.params.num_voice_users = panel.voice_users;
    config.spec.params.request_queue = panel.queue;
    config.axis = experiment::SweepAxis::kDataUsers;
    config.x_values = {10, 25, 40, 60, 80, 110, 140};
    config.protocols_to_run = protocols_order;
    panel.cells = experiment::run_sweep(config, pool);
  }
  const auto panel_setting = [](const Panel& panel) {
    return std::string(panel.queue ? "with" : "without") +
           " request queue, N_v = " + std::to_string(panel.voice_users);
  };

  for (const auto& panel : panels) {
    const auto table = experiment::figure_table(
        std::string("Fig. 12") + panel.label +
            ": data packets delivered per frame, " + panel_setting(panel),
        "N_d", panel.cells, protocols_order, throughput_metric, fixed(2));
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

  for (const auto& panel : panels) {
    const auto table = experiment::figure_table(
        std::string("Fig. 13") + panel.label + ": mean data delay (s), " +
            panel_setting(panel),
        "N_d", panel.cells, protocols_order, delay_metric, fixed(3));
    table.print(std::cout);
    bench::maybe_write_csv(table, std::string("fig13") + panel.label);

    // Delay *tail* (95th percentile) from the pooled histogram — the mean
    // hides the retransmission tail the QoS bound actually cares about.
    experiment::figure_table(
        "  95th-percentile data delay (s)", "N_d", panel.cells,
        protocols_order,
        [](const experiment::ReplicatedResult& r) {
          return r.data_delay_pooled().quantile(0.95);
        },
        fixed(3))
        .print(std::cout);
    for (const auto& cell : panel.cells) {
      const auto warning = experiment::histogram_clip_warning(
          cell.result.data_delay_pooled(),
          cell.result.protocol + " @ N_d=" + std::to_string(cell.x));
      if (warning) std::cout << "  " << *warning << '\n';
    }

    // The paper reads QoS capacity at (delay <= 1 s, throughput >=
    // 0.25/user/frame); the delay bound binds first in every panel.
    experiment::capacity_table("  QoS capacity read-off (delay <= 1 s)",
                               panel.cells, protocols_order, delay_metric,
                               1.0, "1 s mean delay")
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

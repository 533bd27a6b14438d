// Fading explorer: visualize the channel substrate for a chosen speed —
// an ASCII strip-chart of the combined SNR, the ABICM mode occupancy, and
// the outage statistics that drive every protocol result in the paper.
//
//   ./fading_explorer [kmh=50] [measure=2] [mean_snr_db=16] [seed=7]
//                     [doppler_hz=F]
//
// The knobs are charisma_sim's (experiment::parse_scenario); measure= is
// the length of the trace in seconds.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;

  std::vector<std::string> args(argv + 1, argv + argc);
  common::KeyValueConfig::from_args(args).reject_unknown(
      {"kmh", "doppler_hz", "measure", "mean_snr_db", "seed"});
  args.insert(args.begin(), {"kmh=50", "measure=2", "seed=7"});
  const auto config = common::KeyValueConfig::from_args(args);
  const auto scenario = experiment::parse_scenario(config);
  const channel::ChannelConfig& cfg = scenario.spec.params.channel;
  const double kmh = *config.get_double("kmh");
  const auto steps = static_cast<long>(scenario.spec.measure_s / 2.5e-3);
  if (steps < 1) {
    throw std::invalid_argument("measure= must cover one 2.5 ms frame");
  }

  std::cout << "Device at " << kmh << " km/h -> Doppler "
            << common::TextTable::num(cfg.doppler_hz, 1)
            << " Hz, coherence ~"
            << common::TextTable::num(1000.0 / cfg.doppler_hz, 1) << " ms\n\n";

  channel::ChannelBank ch;
  ch.add_user(cfg, common::RngStream(scenario.spec.params.seed));
  const auto phy = phy::AdaptivePhy::abicm6();

  // Strip chart: one row per 25 ms, column = SNR in dB (offset by 5).
  const auto column = [](double db) {
    return static_cast<std::size_t>(
        std::clamp(static_cast<int>(db + 5.0), 0, 40));
  };
  std::string thresholds(41, ' ');
  std::cout << "SNR strip chart (each row = 25 ms; '|' = mode thresholds";
  for (const auto& mode : phy.table().modes()) {
    thresholds[column(mode.threshold_db)] = '|';
    std::cout << (mode.index == 0 ? " " : "/") << mode.threshold_db;
  }
  std::cout << " dB):\n";
  std::cout << "  -5dB      5        15        25       35\n";
  std::vector<std::int64_t> mode_histogram(7, 0);  // [0]=outage, 1..6=modes
  for (long i = 1; i <= steps; ++i) {
    ch.advance_user_to(0, static_cast<double>(i) * 2.5e-3);
    const double db = ch.snr_db(0);
    const auto mode = phy.select_mode(ch.snr_linear(0));
    ++mode_histogram[static_cast<std::size_t>(mode ? *mode + 1 : 0)];
    if (i % 10 == 0) {  // one row per 25 ms
      std::string row = thresholds;
      row[column(db)] = '*';
      std::cout << "  " << row << '\n';
    }
  }

  common::TextTable hist("ABICM mode occupancy over the trace");
  hist.set_header({"mode", "bits/symbol", "fraction of time"});
  const double total = static_cast<double>(steps);
  hist.add_row({"outage", "-",
                common::TextTable::num(
                    static_cast<double>(mode_histogram[0]) / total, 4)});
  for (int m = 0; m < 6; ++m) {
    hist.add_row(
        {std::to_string(m),
         common::TextTable::num(phy.table().mode(m).bits_per_symbol, 1),
         common::TextTable::num(
             static_cast<double>(
                 mode_histogram[static_cast<std::size_t>(m + 1)]) /
                 total,
             4)});
  }
  hist.print(std::cout);

  double mean_tput = 0.0;
  for (int m = 0; m < 6; ++m) {
    mean_tput += phy.table().mode(m).bits_per_symbol *
                 static_cast<double>(
                     mode_histogram[static_cast<std::size_t>(m + 1)]) /
                 total;
  }
  std::cout << "\nAverage adaptive throughput: "
            << common::TextTable::num(mean_tput, 2)
            << " bit/symbol (fixed PHY: 1.0) — the \"~2x\" of the paper's\n"
               "D-TDMA/VR versus D-TDMA/FR comparison.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

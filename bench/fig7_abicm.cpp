// Fig. 7 — BER and throughput of the ABICM scheme.
//   (a) instantaneous BER and the adaptation range: within the range the
//       constant-BER mode holds the target; below mode 0's threshold the
//       target cannot be maintained.
//   (b) instantaneous normalized throughput versus CSI: the staircase of
//       the 6-mode ladder.
//
// Takes no knobs: any argument fails by name.
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  bench::knobs(argc, argv, {});
  bench::print_banner("Fig. 7: BER and throughput of the ABICM scheme",
                      "Kwok & Lau, Fig. 7a/7b");

  const auto phy = phy::AdaptivePhy::abicm6();
  const auto& table = phy.table();

  common::TextTable fig7a("Fig. 7a: instantaneous BER at the selected mode");
  fig7a.set_header({"CSI (dB)", "selected mode", "bits/sym", "BER",
                    "in adaptation range"});
  for (double db = -2.0; db <= 30.0; db += 1.0) {
    const double snr = common::from_db(db);
    const auto mode = table.select(snr);
    if (!mode) {
      fig7a.add_row({common::TextTable::num(db, 1), "outage", "0.0",
                     common::TextTable::sci(table.mode(0).ber(snr), 2), "no"});
    } else {
      fig7a.add_row({common::TextTable::num(db, 1), std::to_string(*mode),
                     common::TextTable::num(table.mode(*mode).bits_per_symbol, 1),
                     common::TextTable::sci(table.mode(*mode).ber(snr), 2),
                     "yes"});
    }
  }
  fig7a.print(std::cout);
  std::cout << '\n';

  common::TextTable fig7b("Fig. 7b: normalized throughput versus CSI");
  fig7b.set_header({"CSI (dB)", "throughput (bit/sym)", "packets/slot"});
  for (double db = 0.0; db <= 26.0; db += 0.5) {
    const auto mode = table.select(common::from_db(db));
    fig7b.add_row({common::TextTable::num(db, 1),
                   common::TextTable::num(table.normalized_throughput(mode), 1),
                   std::to_string(mode ? phy.packets_per_slot(*mode) : 0)});
  }
  fig7b.print(std::cout);
  std::cout << '\n';

  // The average operating point under the calibrated channel: this is the
  // quantity behind "D-TDMA/VR has twice the average offered throughput of
  // D-TDMA/FR" (paper Sec. 3.5).
  channel::ChannelBank ch;
  ch.add_user(channel::ChannelConfig{}, common::RngStream(7));
  common::Accumulator tput;
  for (int i = 1; i <= 200000; ++i) {
    ch.advance_user_to(0, static_cast<double>(i) * 2.5e-3);
    tput.add(table.normalized_throughput(table.select(ch.snr_linear(0))));
  }
  common::TextTable op("Average adaptive throughput at the calibrated operating point");
  op.set_header({"quantity", "value"});
  op.add_row({"E[ABICM throughput] (bit/sym)",
              common::TextTable::num(tput.mean(), 2)});
  op.add_row({"fixed PHY throughput (bit/sym)", "1.00"});
  op.add_row({"VR / FR ratio (paper: ~2x)",
              common::TextTable::num(tput.mean(), 2)});
  op.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

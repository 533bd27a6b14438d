// Energy efficiency — the paper's second motivation (§1): "when channel
// state is bad ... much of the mobile device's energy is wasted". No figure
// in the paper quantifies it; this bench does: transmit energy per
// delivered packet and the wasted-energy fraction for all six protocols on
// a loaded mixed cell. CHARISMA's CSI-aware packing should both avoid
// corrupted transmissions (no blind sends into fades) and skip outage
// users entirely (devices stay silent).
#include <iostream>

#include "bench_support.hpp"

int main() try {
  using namespace charisma;
  bench::print_banner("Energy efficiency (the paper's motivation 2)",
                      "Kwok & Lau, Sec. 1 observations 1-2");

  auto spec = bench::standard_spec(/*default_reps=*/2);
  spec.params.num_voice_users = 100;
  spec.params.num_data_users = 10;
  spec.params.request_queue = true;
  spec.params.seed = 9;

  common::TextTable table(
      "Transmit energy per delivered packet, N_v = 100, N_d = 10, queue on");
  table.set_header({"protocol", "mJ/packet", "waste fraction",
                    "request J/s", "info J/s", "pilot J/s"});
  using M = mac::ProtocolMetrics;
  for (auto id : protocols::all_protocols()) {
    const auto result = experiment::run_replications(id, spec);
    const auto per_second = [&](double M::*joules) {
      return result.mean(
          [joules](const M& m) { return m.*joules / m.measured_time; });
    };
    table.add_row(
        {result.protocol,
         common::TextTable::num(
             result.mean(&M::energy_per_delivered_packet_mj), 4),
         common::TextTable::num(result.mean(&M::energy_waste_ratio), 4),
         common::TextTable::num(per_second(&M::energy_request_j), 3),
         common::TextTable::num(per_second(&M::energy_info_j), 3),
         common::TextTable::num(per_second(&M::energy_pilot_j), 3)});
  }
  table.print(std::cout);
  std::cout
      << "\nReading: the adaptive protocols waste less energy than the\n"
      << "fixed-PHY ones (no blind transmissions into fades); CHARISMA adds\n"
      << "the scheduling layer on top, spending its joules on high-mode\n"
      << "slots that carry several packets each.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

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

  const auto spec = bench::standard_spec(/*default_reps=*/2);

  common::TextTable table(
      "Transmit energy per delivered packet, N_v = 100, N_d = 10, queue on");
  table.set_header({"protocol", "mJ/packet", "waste fraction",
                    "request J/s", "info J/s", "pilot J/s"});
  for (auto id : protocols::all_protocols()) {
    common::Accumulator per_packet, waste, req_rate, info_rate, pilot_rate;
    for (int rep = 0; rep < spec.replications; ++rep) {
      mac::ScenarioParams params = spec.params;
      params.num_voice_users = 100;
      params.num_data_users = 10;
      params.request_queue = true;
      params.seed = experiment::replication_seed(9, 0, rep);
      auto engine = protocols::make_protocol(id, params);
      const auto& m = engine->run(spec.warmup_s, spec.measure_s);
      per_packet.add(m.energy_per_delivered_packet_mj());
      waste.add(m.energy_waste_ratio());
      req_rate.add(m.energy_request_j / m.measured_time);
      info_rate.add(m.energy_info_j / m.measured_time);
      pilot_rate.add(m.energy_pilot_j / m.measured_time);
    }
    table.add_row({protocols::protocol_name(id),
                   common::TextTable::num(per_packet.mean(), 4),
                   common::TextTable::num(waste.mean(), 4),
                   common::TextTable::num(req_rate.mean(), 3),
                   common::TextTable::num(info_rate.mean(), 3),
                   common::TextTable::num(pilot_rate.mean(), 3)});
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

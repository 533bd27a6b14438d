// Table 1 — simulation parameters. Echoes the scenario the other benches
// run — the library defaults of mac::ScenarioParams, including the
// calibrated permission probabilities and fixed-PHY design point, and the
// ABICM ladder of phy::ModeTable::abicm6 — with the derived quantities
// (symbol rate, activity factor, packets per slot).
//
// Takes no knobs: any argument fails by name.
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  bench::knobs(argc, argv, {});
  bench::print_banner("Table 1: simulation parameters",
                      "Kwok & Lau, Table 1 / Sections 2, 4, 5");

  const mac::ScenarioParams p;  // library defaults = Table 1 reproduction
  const auto phy = phy::AdaptivePhy::abicm6();

  common::TextTable traffic("Traffic and contention model (paper Sec. 2)");
  traffic.set_header({"parameter", "value", "source"});
  traffic.add_row({"mean talkspurt", "1.0 s exponential", "paper (Gruber)"});
  traffic.add_row({"mean silence", "1.35 s exponential", "paper (Gruber)"});
  traffic.add_row({"voice activity factor",
                   common::TextTable::num(1.0 / 2.35, 4), "derived"});
  traffic.add_row({"voice codec", "8 kbps, 160-bit packet / 20 ms", "paper"});
  traffic.add_row({"voice deadline", "20 ms", "paper fn. 4"});
  traffic.add_row({"data burst interarrival", "1 s exponential", "paper"});
  traffic.add_row({"data burst size", "100 packets exponential", "paper"});
  traffic.add_row({"permission prob p_v",
                   common::TextTable::num(p.voice_permission_prob, 2),
                   "calibrated"});
  traffic.add_row({"permission prob p_d",
                   common::TextTable::num(p.data_permission_prob, 2),
                   "calibrated"});
  traffic.print(std::cout);
  std::cout << '\n';

  common::TextTable frame("TDMA frame geometry (paper Sec. 4.1 / Fig. 4)");
  frame.set_header({"parameter", "value"});
  frame.add_row({"frame duration",
                 common::TextTable::num(p.geometry.frame_duration * 1e3, 2) +
                     " ms"});
  frame.add_row({"request minislots N_r",
                 std::to_string(p.geometry.num_request_slots)});
  frame.add_row({"information slots N_i",
                 std::to_string(p.geometry.num_info_slots)});
  frame.add_row({"pilot/poll slots N_b",
                 std::to_string(p.geometry.num_pilot_slots)});
  frame.add_row({"info slot size",
                 std::to_string(p.geometry.slot_symbols) + " symbols"});
  frame.add_row({"minislot size",
                 std::to_string(p.geometry.minislot_symbols) + " symbols"});
  frame.add_row({"implied symbol rate",
                 common::TextTable::num(p.geometry.symbol_rate() / 1e3, 1) +
                     " ksym/s"});
  frame.add_row({"frames per voice period",
                 std::to_string(p.geometry.frames_per_voice_period)});
  frame.print(std::cout);
  std::cout << '\n';

  common::TextTable radio("Radio environment (paper Sec. 4.2, calibrated)");
  radio.set_header({"parameter", "value"});
  radio.add_row({"mean link SNR",
                 common::TextTable::num(p.channel.mean_snr_db, 1) + " dB"});
  radio.add_row({"shadowing sigma",
                 common::TextTable::num(p.channel.shadow_sigma_db, 1) + " dB"});
  radio.add_row({"shadowing time constant",
                 common::TextTable::num(p.channel.shadow_tau, 2) + " s"});
  radio.add_row({"Doppler spread",
                 common::TextTable::num(p.channel.doppler_hz, 0) +
                     " Hz (~50 km/h)"});
  radio.add_row({"diversity branches",
                 std::to_string(p.channel.diversity_branches)});
  radio.add_row({"CSI estimate noise",
                 common::TextTable::num(p.csi_error_sigma_db, 2) + " dB"});
  radio.add_row({"CSI validity",
                 std::to_string(p.csi_validity_frames) + " frames"});
  radio.add_row({"fixed PHY design point",
                 common::TextTable::num(p.fixed_phy_reference_db, 1) + " dB"});
  radio.print(std::cout);
  std::cout << '\n';

  common::TextTable modes("ABICM transmission modes (paper Sec. 4.2 / Fig. 7)");
  modes.set_header({"mode", "bits/symbol", "threshold (dB)",
                    "packets per 160-sym slot"});
  for (const auto& mode : phy.table().modes()) {
    modes.add_row({std::to_string(mode.index),
                   common::TextTable::num(mode.bits_per_symbol, 1),
                   common::TextTable::num(mode.threshold_db, 1),
                   std::to_string(phy.packets_per_slot(mode.index))});
  }
  modes.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

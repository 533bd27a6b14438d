// Handoff extension (paper §6 future work, no figure in the paper): voice
// packet loss versus user speed in a mobility-driven multi-cell world, all
// six protocols on the same moving population. Each speed sets both the
// Doppler spread (fading rate) and the mobility model (handoff rate), so
// the sweep separates two penalties the single-cell figures conflate:
// faster fading *and* more frequent cell-boundary crossings.
//
//   ./bench_fig_handoff_loss [cells=2] [voice_users=60] [warmup=4]
//                            [measure=12]
//
// cells= takes at least 2; the knobs are charisma_sim's.
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  const auto args = bench::knobs(
      argc, argv, {"cells", "voice_users", "warmup", "measure"});
  const int cells = experiment::read_int(args, "cells", 2, bench::kWorldCells);
  const int voice_users = experiment::read_count(args, "voice_users", 60);
  const auto spec = bench::standard_spec(args);
  bench::print_banner(
      "Handoff: voice packet loss versus user speed (multi-cell mobility)",
      "Kwok & Lau, Sec. 6 future work (no paper figure; CHARISMA extension)");

  const double speeds_kmh[] = {3.0, 30.0, 60.0, 120.0};

  // charisma_sim's line world (cell_radius_m=500) at one speed.
  const auto world_at = [&](double kmh) {
    return bench::world_from({"cells=" + std::to_string(cells),
                              "voice_users=" + std::to_string(voice_users),
                              "data_users=5", "shadow_sigma_db=6",
                              bench::knob("kmh", kmh)});
  };
  const mac::CellularConfig base = world_at(speeds_kmh[0]);

  std::cout << cells << " cells, " << voice_users << " voice + "
            << base.params.num_data_users << " data users, hysteresis "
            << base.handoff_hysteresis_db << " dB, "
            << spec.measure_s << " s measured per point\n\n";

  common::TextTable loss_table("Voice packet loss rate vs speed (km/h)");
  common::TextTable rate_table(
      "Handoffs per user-minute / voice packets dropped in handoffs");
  std::vector<std::string> header{"km/h"};
  for (auto p : protocols::all_protocols()) {
    header.push_back(protocols::protocol_name(p));
  }
  loss_table.set_header(header);
  rate_table.set_header(header);

  for (const double kmh : speeds_kmh) {
    std::vector<std::string> loss_row{common::TextTable::num(kmh, 0)};
    std::vector<std::string> rate_row{common::TextTable::num(kmh, 0)};
    const mac::CellularConfig cfg = world_at(kmh);
    for (auto id : protocols::all_protocols()) {
      mac::CellularWorld world(cfg, [id](const mac::ScenarioParams& p) {
        return protocols::make_protocol(id, p);
      });
      world.run(spec.warmup_s, spec.measure_s);
      const auto m = world.aggregate_metrics();
      loss_row.push_back(common::TextTable::sci(m.voice_loss_rate(), 2));
      const double per_user_minute =
          60.0 * static_cast<double>(world.handoffs()) /
          (spec.measure_s * cfg.params.total_users());
      rate_row.push_back(common::TextTable::num(per_user_minute, 2) + " / " +
                         std::to_string(m.voice_dropped_handoff));
    }
    loss_table.add_row(std::move(loss_row));
    rate_table.add_row(std::move(rate_row));
  }

  loss_table.print(std::cout);
  bench::maybe_write_csv(loss_table, "fig_handoff_loss");
  rate_table.print(std::cout);

  std::cout
      << "\nShape checks:\n"
      << "  * Handoffs per user-minute grow with speed for every protocol\n"
      << "    (nonzero at vehicular speed) — the mobility model is live.\n"
      << "  * Pedestrian users dwell in deep shadow for whole talkspurts;\n"
      << "    vehicular users churn through it and get rescued by handoff,\n"
      << "    so loss falls with speed while the handoff signaling rate and\n"
      << "    in-transit packet drops rise — the classic mobility trade.\n"
      << "  * CHARISMA keeps its lead at every speed: CSI-ranked allocation\n"
      << "    adapts to the post-handoff channel within a validity period.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

// Frequency-reuse extension (no figure in the paper): voice packet loss
// and data throughput versus the frequency-reuse factor on a hexagonal
// multi-cell world with the uplink co-channel interference (SINR) plane
// enabled, for every protocol and a sweep of cluster sizes.
//
// reuse = 1 puts every cell on the same channel (worst-case co-channel
// interference); larger rhombic factors (3, 4, 7, ...) thin the
// interferer set until — at one channel per cell — the world degenerates
// to the interference-free SNR plane, so the sweep shows each protocol's
// sensitivity to the classic capacity-versus-isolation trade.
//
// Knobs (besides the bench_support ones):
//   CHARISMA_BENCH_REUSE_CELLS   comma list of cell counts, each >= 2
//                                (default 7)
//   CHARISMA_BENCH_REUSE_FACTORS comma list of reuse factors (default 1,3,7)
//   CHARISMA_BENCH_REUSE_VOICE   voice users in the world (default 40)
//   CHARISMA_BENCH_REUSE_ACTIVITY per-user activity factor (default 0.4)
//
// Exit code: 1 when the mean SINR penalty does not fall with the reuse
// factor (the first printed shape check; see penalty_falls_with_reuse).
// The voice-loss check stays printed prose.
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"

namespace {

/// One row of the sweep, as the penalty check reads it.
struct ReusePoint {
  int reuse = 1;
  double mean_interf_db = 0.0;
  bool own_channels = false;  ///< no two of the cells share a channel
};

/// The printed penalty claim for one cell count, which is deterministic:
/// in reuse order, each row's mean penalty is strictly below the previous
/// row's unless both are exactly 0, and a layout that gives every cell its
/// own channel reads exactly 0. Prints the rows and the verdict.
bool penalty_falls_with_reuse(int cells, std::vector<ReusePoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ReusePoint& a, const ReusePoint& b) {
              return a.reuse < b.reuse;
            });
  bool ok = true;
  std::cout << "  " << cells << " cells:";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ReusePoint& p = points[i];
    if (p.own_channels && p.mean_interf_db != 0.0) ok = false;
    if (i > 0 && p.reuse != points[i - 1].reuse) {
      const double prev = points[i - 1].mean_interf_db;
      const bool both_zero = prev == 0.0 && p.mean_interf_db == 0.0;
      if (!(p.mean_interf_db < prev) && !both_zero) ok = false;
    }
    std::cout << (i == 0 ? " " : ", ") << "reuse " << p.reuse << ' '
              << charisma::common::TextTable::num(p.mean_interf_db, 2)
              << " dB";
  }
  std::cout << (ok ? " -- holds\n" : " -- BROKEN\n");
  return ok;
}

}  // namespace

int main() try {
  using namespace charisma;
  bench::print_banner(
      "Frequency reuse: voice loss / data throughput vs reuse factor "
      "(hex SINR world)",
      "CHARISMA extension (no paper figure); inter-cell interference "
      "plane");

  const double activity =
      bench::env_real("CHARISMA_BENCH_REUSE_ACTIVITY", 0.4);
  if (activity < 0.0 || activity > 1.0) {
    throw std::invalid_argument(
        "CHARISMA_BENCH_REUSE_ACTIVITY: must be in [0, 1]");
  }
  const auto cells_list =
      bench::env_count_list("CHARISMA_BENCH_REUSE_CELLS", "7", /*min=*/2);
  const auto reuse_list =
      bench::env_count_list("CHARISMA_BENCH_REUSE_FACTORS", "1,3,7", 1);
  const int voice_users =
      bench::env_count_int("CHARISMA_BENCH_REUSE_VOICE", 40, 0);
  const auto spec = bench::standard_spec(/*default_reps=*/1);

  std::cout << voice_users << " voice + 5 data users, activity factor "
            << activity << ", " << spec.measure_s
            << " s measured per point\n\n";

  common::TextTable loss_table(
      "Voice packet loss rate vs reuse factor (rows: cells/reuse)");
  common::TextTable tput_table(
      "Data throughput per frame vs reuse factor (rows: cells/reuse)");
  std::vector<std::string> header{"cells", "reuse", "mean interf dB"};
  for (auto p : protocols::all_protocols()) {
    header.push_back(protocols::protocol_name(p));
  }
  loss_table.set_header(header);
  tput_table.set_header(header);

  std::vector<std::pair<int, std::vector<ReusePoint>>> penalty_rows;
  for (const int cells : cells_list) {
    penalty_rows.push_back({cells, {}});
    std::vector<ReusePoint>& points = penalty_rows.back().second;
    for (const int reuse : reuse_list) {
      if (!mac::SiteLayout::is_rhombic_number(reuse)) {
        std::cerr << "skipping reuse=" << reuse
                  << " (not a rhombic number)\n";
        continue;
      }
      // charisma_sim's hex world (cell_radius_m=500, 50 km/h).
      const mac::CellularConfig base = bench::world_from(
          {"cells=" + std::to_string(cells), "layout=hex",
           "reuse=" + std::to_string(reuse),
           bench::knob("interference", activity),
           "voice_users=" + std::to_string(voice_users), "data_users=5",
           "shadow_sigma_db=6"});
      bool own_channels = true;

      double mean_interf = 0.0;
      std::vector<std::string> loss_row{std::to_string(cells),
                                        std::to_string(reuse), ""};
      std::vector<std::string> tput_row = loss_row;
      for (auto id : protocols::all_protocols()) {
        mac::CellularWorld world(base, [id](const mac::ScenarioParams& p) {
          return protocols::make_protocol(id, p);
        });
        for (int c = 0; c < cells; ++c) {
          own_channels =
              own_channels && world.layout().co_channel_interferers(c).empty();
        }
        world.run(spec.warmup_s, spec.measure_s);
        const auto m = world.aggregate_metrics();
        loss_row.push_back(common::TextTable::sci(m.voice_loss_rate(), 2));
        tput_row.push_back(
            common::TextTable::num(m.data_throughput_per_frame(), 2));
        mean_interf += m.mean_interference_db();
      }
      mean_interf /= static_cast<double>(protocols::all_protocols().size());
      points.push_back({reuse, mean_interf, own_channels});
      loss_row[2] = common::TextTable::num(mean_interf, 2);
      tput_row[2] = loss_row[2];
      loss_table.add_row(std::move(loss_row));
      tput_table.add_row(std::move(tput_row));
    }
  }

  loss_table.print(std::cout);
  bench::maybe_write_csv(loss_table, "fig_reuse_voice_loss");
  tput_table.print(std::cout);
  bench::maybe_write_csv(tput_table, "fig_reuse_data_throughput");

  std::cout
      << "\nShape checks:\n"
      << "  * The mean SINR penalty falls monotonically as the reuse\n"
      << "    factor grows — fewer co-channel neighbours, less uplink\n"
      << "    interference (exactly zero once every cell has its own\n"
      << "    channel). Checked below; a broken row fails the exit code.\n"
      << "  * Voice loss improves with reuse for every protocol; the\n"
      << "    channel-adaptive ones (CHARISMA, D-TDMA/VR) recover most of\n"
      << "    the gap at reuse 1 because their PHY adapts to the degraded\n"
      << "    SINR instead of shipping packets into it.\n"
      << "\nPenalty check:\n";
  bool penalty_ok = true;
  for (const auto& [cells, points] : penalty_rows) {
    penalty_ok = penalty_falls_with_reuse(cells, points) && penalty_ok;
  }
  return penalty_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

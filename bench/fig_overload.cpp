// Graceful-degradation bench — overload survival with closed-loop access
// barring, plus the cell-outage recovery sweep (PR 6 robustness layer).
//
// Part 1 sweeps offered load at 1x..10x the nominal population with
// barring off and on, for the contention-bound protocols (PRMA's direct
// packet contention and RMAV's single competitive slot collapse first
// under flash crowds; CHARISMA's minislot requests stay capacity-bound, so
// barring cannot and should not change its loss — that case is covered by
// the bit-identical regression test instead). The headline check: at >=5x
// load, barring-on must yield strictly lower voice loss than barring-off.
//
// Part 2 runs a 3-cell world through a mid-run cell outage and compares
// against the identically-seeded never-failed run: evicted users must
// re-attach (accounting invariant: handoffs_in == handoffs_out +
// outage_evictions) and the post-recovery world must keep serving traffic.
//
//   ./bench_fig_overload [voice_users=60] [data_users=10] [warmup=2]
//                        [measure=4] [overload=1,2,5,10]
//                        [protocol=prma,rmav]
//
// The knobs are charisma_sim's: the nominal population, the run window of
// every point, and comma lists of whole load factors (each >= 1, at least
// one >= 5) and of protocols. Each run appends a trajectory point to
// BENCH_overload.json (in CHARISMA_BENCH_JSON_DIR, default the working
// directory).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace charisma;

struct OverloadPoint {
  std::string protocol;
  int factor = 1;
  bool barring = false;
  double voice_loss = 0.0;
  double data_delay_s = 0.0;
  double effective_barring = 0.0;
  double collision_ratio = 0.0;
};

struct OutagePoint {
  std::string label;
  double voice_loss = 0.0;
  std::int64_t evictions = 0;
  std::int64_t voice_dropped_outage = 0;
  bool accounting_ok = true;
};

}  // namespace

int main(int argc, char** argv) try {
  const auto args = bench::knobs(
      argc, argv,
      {"voice_users", "data_users", "warmup", "measure", "overload",
       "protocol"});
  const int voice = experiment::read_count(args, "voice_users", 60);
  const int data = experiment::read_count(args, "data_users", 10);
  const double warmup_s =
      experiment::read_double(args, "warmup", 2.0, experiment::kNonNegative);
  const double measure_s =
      experiment::read_double(args, "measure", 4.0, experiment::kPositive);
  const auto factors = experiment::read_int_list(
      args, "overload", {1, 2, 5, 10}, experiment::kAtLeastOne);
  const auto ids = experiment::read_protocol_list(
      args, "protocol",
      {protocols::ProtocolId::kPrma, protocols::ProtocolId::kRmav});
  // The exit code asserts the barring win at >= 5x load, so a grid without
  // such a factor would pass having tested nothing.
  if (std::ranges::none_of(factors, [](int factor) { return factor >= 5; })) {
    throw std::invalid_argument(
        "overload= needs a factor >= 5: the bench checks barring at >= 5x "
        "load");
  }
  bench::print_banner(
      "Overload survival: loss/delay vs offered load, barring off/on, "
      "plus cell-outage recovery",
      "CHARISMA extension (no paper figure); PR 6 trajectory point");

  common::TextTable table("Voice loss and data delay vs offered load");
  table.set_header({"protocol", "load", "barring", "voice loss",
                    "data delay (s)", "eff. barring", "coll. ratio"});

  std::vector<OverloadPoint> points;
  for (auto id : ids) {
    for (int factor : factors) {
      for (bool barring : {false, true}) {
        mac::ScenarioParams params;
        params.num_voice_users = voice * factor;
        params.num_data_users = data * factor;
        params.seed = 5;
        params.barring = barring;
        auto engine = protocols::make_protocol(id, params);
        engine->run(warmup_s, measure_s);
        const auto& m = engine->metrics();

        OverloadPoint p;
        p.protocol = protocols::protocol_name(id);
        p.factor = factor;
        p.barring = barring;
        p.voice_loss = m.voice_loss_rate();
        p.data_delay_s = m.mean_data_delay_s();
        p.effective_barring = m.effective_barring_probability();
        p.collision_ratio =
            m.request_slots > 0
                ? static_cast<double>(m.request_collisions) /
                      static_cast<double>(m.request_slots)
                : 0.0;
        points.push_back(p);

        table.add_row({p.protocol, std::to_string(factor) + "x",
                       barring ? "on" : "off",
                       common::TextTable::sci(p.voice_loss, 3),
                       common::TextTable::num(p.data_delay_s, 3),
                       common::TextTable::num(p.effective_barring, 3),
                       common::TextTable::num(p.collision_ratio, 3)});
      }
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "fig_overload");

  // The graceful-degradation claim this bench exists to demonstrate:
  // wherever contention has collapsed (>=5x load), closing the loop must
  // strictly lower voice loss.
  bool degradation_ok = true;
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const auto& off = points[i];
    const auto& on = points[i + 1];
    if (off.factor >= 5 && !(on.voice_loss < off.voice_loss)) {
      degradation_ok = false;
      std::cout << "DEGRADATION CHECK FAILED: " << off.protocol << " "
                << off.factor << "x barring-on loss " << on.voice_loss
                << " not below barring-off " << off.voice_loss << '\n';
    }
  }
  std::cout << "\nbarring-on strictly lowers voice loss at >=5x load: "
            << (degradation_ok ? "yes" : "NO — BUG") << '\n';

  // Part 2: outage and recovery in a 3-cell world. The outage window sits
  // entirely inside the measurement window so the dropped traffic lands in
  // the books; the run extends two seconds past recovery so re-attachment
  // and fresh service show up in the same aggregate.
  std::vector<OutagePoint> outage_points;
  bool accounting_ok = true;
  for (bool with_outage : {false, true}) {
    // Built by hand: no cell_radius_m gives this 1500 x 300 m line field.
    mac::CellularConfig cfg;
    cfg.num_cells = 3;
    cfg.num_threads = 1;
    cfg.params.num_voice_users = 30;
    cfg.params.num_data_users = 6;
    cfg.params.seed = 7;
    cfg.params.channel.mean_snr_db = 26.0;
    cfg.params.channel.shadow_sigma_db = 6.0;
    cfg.mobility.field_width_m = 1500.0;
    cfg.mobility.field_height_m = 300.0;
    cfg.mobility.speed_mps = common::km_per_hour(50.0);
    cfg.handoff_hysteresis_db = 2.0;
    if (with_outage) {
      cfg.outages.push_back({1, warmup_s + 1.0, warmup_s + 2.0});
    }
    mac::CellularWorld world(cfg, [](const mac::ScenarioParams& p) {
      return protocols::make_protocol(protocols::ProtocolId::kCharisma, p);
    });
    world.run(warmup_s, measure_s + 2.0);
    const auto m = world.aggregate_metrics();

    OutagePoint p;
    p.label = with_outage ? "outage_cell1" : "never_failed";
    p.voice_loss = m.voice_loss_rate();
    p.evictions = m.outage_evictions;
    p.voice_dropped_outage = m.voice_dropped_outage;
    p.accounting_ok =
        m.handoffs_in == m.handoffs_out + m.outage_evictions;
    accounting_ok = accounting_ok && p.accounting_ok;
    outage_points.push_back(p);
    std::cout << p.label << ": voice loss "
              << common::TextTable::sci(p.voice_loss, 3) << ", evictions "
              << p.evictions << ", voice dropped by outage "
              << p.voice_dropped_outage << ", accounting "
              << (p.accounting_ok ? "ok" : "BROKEN") << '\n';
  }

  std::ostringstream fields;
  fields << "\"nominal_voice_users\": " << voice
         << ",\n      \"nominal_data_users\": " << data
         << ",\n      \"measure_s\": " << measure_s
         << ",\n      \"barring_strictly_lowers_loss_at_5x_plus\": "
         << (degradation_ok ? "true" : "false")
         << ",\n      \"outage_accounting_ok\": "
         << (accounting_ok ? "true" : "false")
         << ",\n      \"overload_points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    fields << "        {\"protocol\": \"" << p.protocol
           << "\", \"load_factor\": " << p.factor
           << ", \"barring\": " << (p.barring ? "true" : "false")
           << ", \"voice_loss\": " << p.voice_loss
           << ", \"data_delay_s\": " << p.data_delay_s
           << ", \"effective_barring\": " << p.effective_barring
           << ", \"collision_ratio\": " << p.collision_ratio << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
  }
  fields << "      ],\n      \"outage_points\": [\n";
  for (std::size_t i = 0; i < outage_points.size(); ++i) {
    const auto& p = outage_points[i];
    fields << "        {\"scenario\": \"" << p.label
           << "\", \"voice_loss\": " << p.voice_loss
           << ", \"outage_evictions\": " << p.evictions
           << ", \"voice_dropped_outage\": " << p.voice_dropped_outage
           << ", \"accounting_ok\": " << (p.accounting_ok ? "true" : "false")
           << "}" << (i + 1 < outage_points.size() ? "," : "") << "\n";
  }
  fields << "      ]";
  bench::append_trajectory_point("overload_survival", "BENCH_overload",
                                 fields.str());
  return degradation_ok && accounting_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

// Fig. 5 — "A sample of channel fading with fast fading superimposed on
// long-term shadowing". Generates a 2-second trace from the Jakes
// sum-of-sinusoids fast-fading generator on top of the log-normal
// shadowing of a one-row ChannelBank (the model every simulation uses),
// sampled every 2 ms, and prints a decimated series plus summary
// statistics matching the figure's qualitative features (~10 ms fast
// fluctuations over a ~1 s local mean).
//
// Takes no knobs: any argument fails by name.
#include <iostream>

#include "bench_support.hpp"

int main(int argc, char** argv) try {
  using namespace charisma;
  bench::knobs(argc, argv, {});
  bench::print_banner("Fig. 5: sample of channel fading", "Kwok & Lau, Fig. 5");

  common::RngStream rng(2026);
  const double doppler = 100.0;  // 50 km/h class
  channel::JakesFadingGenerator fast(doppler, 32, rng);
  channel::ChannelConfig shadow_cfg;
  shadow_cfg.shadow_sigma_db = 3.0;
  shadow_cfg.shadow_tau = 1.0;
  shadow_cfg.sample_interval = 2e-3;
  channel::ChannelBank shadow;
  shadow.add_user(shadow_cfg, common::RngStream(2026, 1));

  common::TextTable table("Combined fading c(t)^2 in dB, 2 ms samples "
                          "(every 25th sample shown)");
  table.set_header({"t (s)", "fast (dB)", "shadow (dB)", "combined (dB)"});

  common::Accumulator combined_db;
  common::Accumulator fast_db_acc;
  common::Accumulator shadow_db_acc;
  double min_db = 1e9, max_db = -1e9;
  int crossings = 0;  // fast-fading zero (mean) crossings -> fluctuation rate
  double prev_fast_db = 0.0;

  const int samples = 1000;  // 2 s at 2 ms
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * 2e-3;
    shadow.advance_user_to(0, t);
    const double fast_db = common::to_db(fast.power_gain(t));
    const double total_db = fast_db + shadow.shadow_db(0);
    combined_db.add(total_db);
    fast_db_acc.add(fast_db);
    shadow_db_acc.add(shadow.shadow_db(0));
    min_db = std::min(min_db, total_db);
    max_db = std::max(max_db, total_db);
    if (i > 0 && (fast_db > 0.0) != (prev_fast_db > 0.0)) ++crossings;
    prev_fast_db = fast_db;
    if (i % 25 == 0) {
      table.add_row({common::TextTable::num(t, 3),
                     common::TextTable::num(fast_db, 2),
                     common::TextTable::num(shadow.shadow_db(0), 2),
                     common::TextTable::num(total_db, 2)});
    }
  }
  table.print(std::cout);

  common::TextTable summary("Trace statistics (cf. Fig. 5's visual features)");
  summary.set_header({"quantity", "value"});
  summary.add_row({"mean combined gain (dB)",
                   common::TextTable::num(combined_db.mean(), 2)});
  summary.add_row({"std-dev (dB)", common::TextTable::num(combined_db.stddev(), 2)});
  summary.add_row({"shadow std-dev (dB; sigma 3, tau 1 s)",
                   common::TextTable::num(shadow_db_acc.stddev(), 2)});
  summary.add_row({"dynamic range (dB)",
                   common::TextTable::num(max_db - min_db, 1)});
  summary.add_row({"fast-fading mean crossings / s",
                   common::TextTable::num(crossings / 2.0, 1)});
  summary.add_row({"expected crossing rate ~ Doppler (Hz)",
                   common::TextTable::num(doppler, 0)});
  summary.print(std::cout);
  std::cout << "\nShape check: deep (>10 dB) fast fades every few tens of ms\n"
               "riding on a shadowing level that drifts over ~1 s — the\n"
               "structure Fig. 5 shows.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

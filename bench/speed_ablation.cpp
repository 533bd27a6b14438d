// Section 5.3.3 — mobile speed and CSI usage. The paper reports CHARISMA's
// performance unchanged from 10-50 km/h and degrading by <5% at 80 km/h,
// crediting the CSI refresh mechanism. We sweep the Doppler spread implied
// by 10-80 km/h at a fixed moderate load, with the refresh mechanism on
// and off, and report the loss inflation relative to the 10 km/h point.
//
// Before the paper sweep, a hot-path ablation times the channel-evolution
// inner loop — the batched SoA ChannelBank (eager), the lazy touch-set
// bank at ~10% active users per frame, and jump strides k=1 vs k=64 — and
// appends the result as a trajectory point to BENCH_channel_bank.json (set
// CHARISMA_BENCH_JSON_DIR to redirect).
//
//   ./speed_ablation [bank_users=10000] [bank_frames=400] [warmup=4]
//                    [measure=12] [replications=2]
//
// bank_users= and bank_frames= size the hot-path ablation (at least 1
// each; k/M suffixes as charisma_sim's voice_users=); the others are
// charisma_sim's and drive the paper sweep.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace charisma;

double benchmark_bank(int users, int frames, int stride) {
  channel::ChannelBank bank;
  bank.reserve(static_cast<std::size_t>(users));
  const channel::ChannelConfig cfg{};
  for (int i = 0; i < users; ++i) {
    bank.add_user(cfg, common::RngStream(static_cast<std::uint64_t>(i) + 1));
  }
  double sink = 0.0;
  const auto start = std::chrono::steady_clock::now();
  double t = 0.0;
  for (int f = 0; f < frames; ++f) {
    t += stride * cfg.sample_interval;
    bank.advance_all_to(t);
    sink += bank.fading_power(0);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  if (sink < 0.0) std::cout << "";
  return wall.count();
}

/// Lazy schedule with a rotating touch window: each frame declares only
/// `touch_ratio` of the population as its read set (the frame-loop shape
/// under ProtocolEngine's touch hooks), so an untouched user accrues
/// deferred frames until its window comes around and one O(1) jump covers
/// them all.
double benchmark_bank_lazy(int users, int frames, double touch_ratio) {
  channel::ChannelBank bank;
  bank.reserve(static_cast<std::size_t>(users));
  const channel::ChannelConfig cfg{};
  for (int i = 0; i < users; ++i) {
    bank.add_user(cfg, common::RngStream(static_cast<std::uint64_t>(i) + 1));
  }
  const int window = std::max(
      1, static_cast<int>(static_cast<double>(users) * touch_ratio));
  // Doubled id array so every rotating window is one contiguous span.
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(users) * 2);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::uint32_t>(i % static_cast<std::size_t>(users));
  }
  double sink = 0.0;
  const auto start = std::chrono::steady_clock::now();
  double t = 0.0;
  for (int f = 0; f < frames; ++f) {
    t += cfg.sample_interval;
    const std::size_t lo = static_cast<std::size_t>(
        (static_cast<long long>(f) * window) % users);
    bank.set_time(t);
    bank.materialize_users({ids.data() + lo, static_cast<std::size_t>(window)});
    sink += bank.fading_power(ids[lo]);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  if (sink < 0.0) std::cout << "";
  return wall.count();
}

void run_hot_path_ablation(int users, int frames) {
  const double touch_ratio = 0.10;

  // One stride-1 measurement serves as the common baseline for the k=64
  // cost ratio and the lazy ablation.
  const double eager_s = benchmark_bank(users, frames, 1);
  const double jump1_s = eager_s;
  const double jump64_s = benchmark_bank(users, frames, 64);
  const double lazy_s = benchmark_bank_lazy(users, frames, touch_ratio);
  const double jump_ratio = jump64_s / jump1_s;
  const double lazy_speedup = eager_s / lazy_s;

  common::TextTable table("Channel-evolution hot path (10k-user class)");
  table.set_header({"path", "users", "frames", "wall (s)",
                    "user-frames / s"});
  const auto rate = [&](double s) {
    return common::TextTable::sci(
        static_cast<double>(users) * frames / s, 2);
  };
  table.add_row({"eager bank", common::TextTable::num(users, 0),
                 common::TextTable::num(frames, 0),
                 common::TextTable::num(eager_s, 4), rate(eager_s)});
  table.add_row({"bank, k=64 jumps", common::TextTable::num(users, 0),
                 common::TextTable::num(frames, 0),
                 common::TextTable::num(jump64_s, 4), rate(jump64_s)});
  table.add_row({"lazy bank, 10% touched", common::TextTable::num(users, 0),
                 common::TextTable::num(frames, 0),
                 common::TextTable::num(lazy_s, 4), rate(lazy_s)});
  table.print(std::cout);
  std::cout << "k=64 vs k=1 cost ratio: "
            << common::TextTable::num(jump_ratio, 2)
            << " (O(1) target: ~1)\n"
            << "lazy vs eager (10% active/frame): "
            << common::TextTable::num(lazy_speedup, 2)
            << "x (acceptance floor: 3x)\n\n";

  std::ostringstream fields;
  fields << "\"users\": " << users << ",\n      \"frames\": " << frames
         << ",\n      \"touch_ratio\": " << touch_ratio
         << ",\n      \"eager_scalar_wall_s\": " << eager_s
         << ",\n      \"lazy_scalar_wall_s\": " << lazy_s
         << ",\n      \"speedup_lazy_vs_eager\": " << lazy_speedup
         << ",\n      \"jump_k1_wall_s\": " << jump1_s
         << ",\n      \"jump_k64_wall_s\": " << jump64_s
         << ",\n      \"jump_k64_vs_k1_ratio\": " << jump_ratio;
  bench::append_trajectory_point("channel_bank_hot_path",
                                 "BENCH_channel_bank", fields.str());
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace charisma;
  const auto args = bench::knobs(argc, argv,
                                 {"bank_users", "bank_frames", "warmup",
                                  "measure", "replications"});
  const int users = experiment::read_count(args, "bank_users", 10000,
                                           experiment::kAtLeastOne);
  const int frames = experiment::read_count(args, "bank_frames", 400,
                                            experiment::kAtLeastOne);
  auto spec = bench::standard_spec(args, /*default_reps=*/2);
  bench::print_banner("Sec. 5.3.3: mobile speed and CSI usage",
                      "Kwok & Lau, Sec. 5.3.3 (speed sensitivity)");

  spec.params.num_voice_users = 100;
  spec.params.request_queue = true;
  spec.params.seed = 1;

  run_hot_path_ablation(users, frames);

  common::TextTable table(
      "CHARISMA voice loss versus mobile speed (N_v = 100, with queue)");
  table.set_header({"speed (km/h)", "Doppler (Hz)", "loss (refresh on)",
                    "loss (refresh off)", "stale-CSI allocations"});
  using M = mac::ProtocolMetrics;
  std::vector<double> losses_with_refresh;
  for (double kmh : {10.0, 30.0, 50.0, 65.0, 80.0}) {
    const double doppler = channel::ChannelConfig::doppler_for_speed(
        common::km_per_hour(kmh), /*carrier_hz=*/2.0e9);
    spec.params.channel.doppler_hz = doppler;
    auto no_refresh = spec;
    no_refresh.charisma.csi_poll_budget = 0;
    const auto point = static_cast<std::uint64_t>(kmh);
    const auto on = experiment::run_replications(
        protocols::ProtocolId::kCharisma, spec, point);
    const auto off = experiment::run_replications(
        protocols::ProtocolId::kCharisma, no_refresh, point);
    losses_with_refresh.push_back(on.mean(&M::voice_loss_rate));
    table.add_row({common::TextTable::num(kmh, 0),
                   common::TextTable::num(doppler, 0),
                   common::TextTable::sci(losses_with_refresh.back(), 2),
                   common::TextTable::sci(off.mean(&M::voice_loss_rate), 2),
                   common::TextTable::num(on.mean(&M::csi_stale_ratio), 4)});
  }
  table.print(std::cout);

  const double base = losses_with_refresh.front();
  const double fast = losses_with_refresh.back();
  std::cout << "\nDegradation 10 -> 80 km/h with refresh: "
            << common::TextTable::num(
                   base > 0 ? (fast - base) / base * 100.0 : 0.0, 1)
            << "% relative (paper: < 5% absolute capacity drop).\n"
            << "The refresh mechanism's value grows with speed (compare the\n"
            << "two loss columns) — the paper's Sec. 5.3.3 observation.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

// Engine micro-benchmarks (google-benchmark): the hot paths of the common
// simulation platform — per-frame channel evolution, contention
// resolution, and one full protocol frame for each protocol.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "bench_support.hpp"
#include "charisma.hpp"

namespace {

using namespace charisma;

void BM_ChannelRowFrameStep(benchmark::State& state) {
  channel::ChannelBank ch;
  ch.add_user(channel::ChannelConfig{}, common::RngStream(1));
  double t = 0.0;
  for (auto _ : state) {
    t += 2.5e-3;
    ch.advance_user_to(0, t);
    benchmark::DoNotOptimize(ch.snr_linear(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelRowFrameStep);

void BM_RngNormal(benchmark::State& state) {
  // In-house Box-Muller (cached spare) — the draw behind the CSI
  // estimation noise and the per-user link-budget spread.
  common::RngStream rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal);

void BM_RngNormalFast(benchmark::State& state) {
  // Ziggurat generator feeding the batched channel innovations (the draw
  // ChannelBank::jump_user makes for a row's shadowing).
  const auto& zig = common::detail::ziggurat_tables();
  common::SplitMix64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(zig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormalFast);

void BM_RngNormalStdBaseline(benchmark::State& state) {
  // What RngStream::normal() used to do: a fresh std::normal_distribution
  // per call over the same engine.
  common::RngStream rng(1);
  for (auto _ : state) {
    std::normal_distribution<double> dist(0.0, 1.0);
    benchmark::DoNotOptimize(dist(rng.engine()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormalStdBaseline);

void BM_RngUniformInt(benchmark::State& state) {
  common::RngStream rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(12));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformInt);

channel::ChannelBank make_bank(int n) {
  channel::ChannelBank bank;
  bank.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bank.add_user(channel::ChannelConfig{},
                  common::RngStream(static_cast<std::uint64_t>(i) + 1));
  }
  return bank;
}

void BM_PerUserAdvanceBaseline(benchmark::State& state) {
  // The pre-ChannelBank hot path (heap-scattered per-user walks, fresh
  // std::normal_distribution per draw) — see bench::LegacyChannelWalk.
  const int n = static_cast<int>(state.range(0));
  bench::LegacyChannelWalk walk(n);
  for (auto _ : state) {
    walk.step_all();
    benchmark::DoNotOptimize(walk.power_gain(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PerUserAdvanceBaseline)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ChannelBankAdvance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto bank = make_bank(n);
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  for (auto _ : state) {
    t += dt;
    bank.advance_all_to(t);
    benchmark::DoNotOptimize(bank.snr_linear(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelBankAdvance)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ChannelBankJump(benchmark::State& state) {
  // O(1)-in-k check: cost per advance must not scale with the stride.
  const auto k = static_cast<double>(state.range(0));
  auto bank = make_bank(1000);
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  for (auto _ : state) {
    t += k * dt;
    bank.advance_all_to(t);
    benchmark::DoNotOptimize(bank.snr_linear(0));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelBankJump)->Arg(1)->Arg(64);

void BM_ChannelBankLazyAdvance(benchmark::State& state) {
  // Lazy touch-set advancement at 10/50/100% of the population read per
  // frame (rotating window, the protocol frame-loop shape). 100% is the
  // lazy-bookkeeping overhead bound vs BM_ChannelBankAdvance/10000.
  const int n = 10000;
  const int pct = static_cast<int>(state.range(0));
  const int window = std::max(1, n * pct / 100);
  auto bank = make_bank(n);
  // Doubled id array so every rotating window is one contiguous span.
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(n) * 2);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::uint32_t>(i % static_cast<std::size_t>(n));
  }
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  std::int64_t frame = 0;
  for (auto _ : state) {
    t += dt;
    const std::size_t lo = static_cast<std::size_t>((frame * window) % n);
    bank.set_time(t);
    bank.materialize_users({ids.data() + lo, static_cast<std::size_t>(window)});
    benchmark::DoNotOptimize(bank.fading_power(ids[lo]));
    ++frame;
  }
  state.SetItemsProcessed(state.iterations() * window);
}
BENCHMARK(BM_ChannelBankLazyAdvance)->Arg(10)->Arg(50)->Arg(100);

void BM_JakesSample(benchmark::State& state) {
  common::RngStream rng(2);
  channel::JakesFadingGenerator gen(100.0, 32, rng);
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-3;
    benchmark::DoNotOptimize(gen.power_gain(t));
  }
}
BENCHMARK(BM_JakesSample);

void BM_ContentionPhase(benchmark::State& state) {
  const int contenders = static_cast<int>(state.range(0));
  std::vector<common::UserId> candidates;
  std::vector<common::RngStream> rngs;
  for (int i = 0; i < contenders; ++i) {
    candidates.push_back(i);
    rngs.emplace_back(static_cast<std::uint64_t>(i) + 7);
  }
  for (auto _ : state) {
    auto outcome = mac::run_request_phase(
        candidates, 12, [](common::UserId) { return 0.3; },
        [&rngs](common::UserId id) -> common::RngStream& {
          return rngs[static_cast<std::size_t>(id)];
        });
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_ContentionPhase)->Arg(2)->Arg(10)->Arg(50);

void BM_ModeSelection(benchmark::State& state) {
  const auto table = phy::ModeTable::abicm6();
  common::RngStream rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.select(rng.uniform(0.5, 200.0)));
  }
}
BENCHMARK(BM_ModeSelection);

template <protocols::ProtocolId kId>
void BM_ProtocolSecond(benchmark::State& state) {
  // Cost of one simulated second (400 frames) at a moderate mixed load.
  for (auto _ : state) {
    state.PauseTiming();
    mac::ScenarioParams params;
    params.num_voice_users = 60;
    params.num_data_users = 10;
    params.seed = 11;
    auto engine = protocols::make_protocol(kId, params);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run(0.0, 1.0));
  }
}
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kCharisma>)
    ->Name("BM_ProtocolSecond/CHARISMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDtdmaVr>)
    ->Name("BM_ProtocolSecond/DTDMA_VR")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDtdmaFr>)
    ->Name("BM_ProtocolSecond/DTDMA_FR")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDrma>)
    ->Name("BM_ProtocolSecond/DRMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kRama>)
    ->Name("BM_ProtocolSecond/RAMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kRmav>)
    ->Name("BM_ProtocolSecond/RMAV")->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

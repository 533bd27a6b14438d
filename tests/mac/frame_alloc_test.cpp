// Pins the allocation-free steady state: a program-wide operator new/delete
// override counts every allocation crossing the global heap, and the warm
// frame loop, world epochs and SiteIndex rebuilds below are required not to
// move the counter at all.
//
// The override lives in this TU but (by the ODR rules for replaceable
// global operators) serves the whole test binary; it only counts, so the
// other suites are unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/charisma.hpp"
#include "mac/cellular_world.hpp"
#include "mac/presence.hpp"
#include "mac/scenario.hpp"
#include "mac/site_layout.hpp"
#include "protocols/factory.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Every operator delete below frees through this out-of-line helper. A
// delete inlined straight into std::free lets GCC pair it with a call to
// (the replaced) operator new and warn -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

// Over-aligned forms count too, so the zero-allocation assertions keep
// covering e.g. a future alignas(32) SIMD buffer in the frame loop.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace charisma::mac {
namespace {

TEST(FrameAlloc, QuietEngineFramesAreAllocationFree) {
  // Every protocol's frame loop with nothing to send: the per-frame
  // scratch (candidate lists, pending requests, touch sets) is reused, so
  // a warm quiet frame touches the heap not at all — RMAV and DRMA, whose
  // frame durations are data-dependent, included. Voice users fall silent
  // after their initial talkspurts (mean 1 s) and never speak again.
  auto ids = protocols::all_protocols();
  ids.push_back(protocols::ProtocolId::kPrma);
  for (auto id : ids) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::ScenarioParams params;
    params.num_voice_users = 6;
    params.num_data_users = 0;
    params.seed = 5;
    params.mean_silence_s = 1e9;
    auto engine = protocols::make_protocol(id, params);
    engine->advance_by(5.0);  // settle: the initial talkspurts drain
    const auto frames_before = engine->frame_index();
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine->advance_by(2.0);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_GT(engine->frame_index(), frames_before);
  }
}

TEST(FrameAlloc, ActiveFramesAreAllocationFree) {
  // Every protocol's frame loop with live traffic: talkspurts start and
  // end, data bursts arrive and drain, requests contend (RMAV in every
  // micro-frame), win, queue and get served, reservations come and go.
  // The contention outcome and its per-candidate flags are the engine's,
  // the data backlog is a ring that grows only when full, the reservation
  // grid keeps a sorted vector reserved to its size, and CHARISMA's
  // reservation map recycles its nodes in a pool. So once the warm-up has
  // taken every reused buffer to its high-water mark, a frame allocates
  // nothing. The 30 s warm-up is tuned to seed 5's traffic: after 1–20 s,
  // a counted window still reads 1–3 allocations, where a backlog ring,
  // a reservation due list, a pending-request list or a candidate list
  // first reaches a new length. Re-check it whenever regenerated results
  // change this scenario's traffic.
  auto ids = protocols::all_protocols();
  ids.push_back(protocols::ProtocolId::kPrma);
  for (auto id : ids) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::ScenarioParams params;
    params.num_voice_users = 6;
    params.num_data_users = 2;
    params.seed = 5;
    auto engine = protocols::make_protocol(id, params);
    engine->advance_by(30.0);
    const mac::ProtocolMetrics& m = engine->metrics();
    const auto voice = m.voice_delivered;
    const auto data = m.data_delivered;
    const auto requests = m.request_successes;
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine->advance_by(4.0);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    // Not vacuous: the counted window carried both services, and requests
    // won contention in it.
    EXPECT_GT(m.voice_delivered, voice);
    EXPECT_GT(m.data_delivered, data);
    EXPECT_GT(m.request_successes, requests);
  }
}

TEST(FrameAlloc, SteadyStateWorldEpochsAreAllocationFree) {
  // The sharded coordinator's epoch path end to end: mobility, SiteIndex
  // band queries, shard proposal arenas, pilot blending, the attachment
  // rule, the SNR/SINR planes, and the per-cell frame burns. Static users
  // (speed 0) pin the world plane's steady state — no band churn, no
  // handoffs — and a near-infinite silence keeps the MAC quiet: every
  // protocol's per-frame scratch vector stays empty (an empty std::vector
  // never touches the heap), so the whole epoch must allocate nothing.
  // QuietEngineFramesAreAllocationFree above pins each protocol's quiet
  // frame on its own; this one pins the world machinery around it.
  mac::CellularConfig cfg;
  cfg.num_cells = 4;
  cfg.num_threads = 1;  // the inline dispatch path — no worker handoff
  cfg.num_shards = 3;   // shard arenas live even when dispatch is inline
  cfg.params.num_voice_users = 12;
  cfg.params.num_data_users = 0;
  cfg.params.seed = 7;
  cfg.params.mean_silence_s = 1e9;  // silent after the initial talkspurts
  cfg.pilot_band_radius_m = 700.0;  // sparse bands: SiteIndex runs per epoch
  cfg.mobility.field_width_m = 2000.0;
  cfg.mobility.field_height_m = 400.0;
  cfg.mobility.speed_mps = 0.0;
  cfg.handoff_hysteresis_db = 2.0;
  mac::CellularWorld world(
      cfg, [](const mac::ScenarioParams& params) {
        return protocols::make_protocol(protocols::ProtocolId::kCharisma,
                                        params);
      });
  ASSERT_EQ(world.shard_count(), 3u);
  world.run(0.5, 0.5);  // warmup + one measured window grows all scratch
  // Settling: let the initial talkspurts (mean 1 s) drain so the MAC's
  // per-frame candidate lists are empty in the counted window.
  world.advance(4.0);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  world.advance(1.0);  // 50 epochs at the default decision interval
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  // The world actually ran: frames burned for the attached population.
  EXPECT_GT(world.aggregate_metrics().attached_user_frames, 0);
}

TEST(FrameAlloc, SteadyStateInterferenceWorldEpochsAreAllocationFree) {
  // The steady state above on a hex reuse-3 world with a partial band and
  // the SINR plane on: the plane's packed positions and INR accumulators
  // and the shards' band diff must settle at their high water too. Static
  // users again keep every band, and so every scratch size, fixed.
  mac::CellularConfig cfg;
  cfg.num_cells = 7;
  // The plane's scratch is per worker thread, and which worker plans
  // which cell varies between epochs, so only a serial world reaches its
  // high water in a fixed warm-up.
  cfg.num_threads = 1;
  cfg.num_shards = 3;
  cfg.params.num_voice_users = 13;
  cfg.params.num_data_users = 0;
  cfg.params.seed = 7;
  cfg.params.mean_silence_s = 1e9;  // silent after the initial talkspurts
  cfg.layout.kind = mac::SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = 3;
  cfg.interference_activity = 0.45;
  cfg.pilot_band_radius_m = 900.0;
  const auto [width, height] = mac::SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = 0.0;
  cfg.handoff_hysteresis_db = 2.0;
  mac::CellularWorld world(
      cfg, [](const mac::ScenarioParams& params) {
        return protocols::make_protocol(protocols::ProtocolId::kCharisma,
                                        params);
      });
  ASSERT_TRUE(world.interference_enabled());
  world.run(0.5, 0.5);
  world.advance(4.0);  // drain the initial talkspurts, as above
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  world.advance(1.0);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  // The plane ran with load to sum: some member's penalty was positive.
  EXPECT_GT(world.aggregate_metrics().interference_db.max(), 0.0);
}

TEST(FrameAlloc, SiteIndexRebuildReusesBucketStorage) {
  // Band maintenance keeps its bucket vectors alive across rebuild():
  // clearing in place and growing only. Re-binning the same geometry —
  // and re-binning a smaller one — must cost zero allocations once the
  // first build has established the high-water mark.
  const double width = 4000.0, height = 1000.0;
  mac::SiteLayout big(mac::SiteLayoutConfig{}, /*num_cells=*/8, width,
                      height);
  mac::SiteLayout small(mac::SiteLayoutConfig{}, /*num_cells=*/3, width,
                        height);
  mac::SiteIndex index(big, 600.0);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(big.num_sites()));
  // One warm cycle through the three grid shapes: re-binning redistributes
  // entries, so some bucket first reaches its high-water capacity here.
  index.rebuild(big, 600.0);
  index.rebuild(small, 600.0);
  index.rebuild(big, 900.0);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    index.rebuild(big, 600.0);
    index.rebuild(small, 600.0);  // shrink: fewer sites, same storage
    index.rebuild(big, 900.0);    // wider radius: fewer, larger buckets
  }
  out.clear();
  index.cells_near({0.25 * width, 0.75 * height}, out);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_FALSE(out.empty());
}

TEST(FrameAlloc, RetransmittingDataScenarioStaysAllocationFree) {
  // The ARQ path: a data backlog cycling through pop_head +
  // DataSource::push_front every frame. FR pins transmit_data's one-packet
  // burst and VR its multi-packet bursts, both refilling the engine's
  // reused retx_scratch_. A deep fade (mean SNR -30 dB) makes
  // every attempt fail while a huge CSI error still talks the VR
  // transmitter into trying modes it cannot sustain, so the backlog never
  // drains: the ring's head oscillates in place and the warm frame loop
  // must not allocate at all. Arrivals are quiesced (1e9 s interarrival)
  // and the backlog seeded by hand, so nothing grows the ring inside the
  // counted window either.
  for (auto id :
       {protocols::ProtocolId::kDtdmaFr, protocols::ProtocolId::kDtdmaVr}) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::ScenarioParams params;
    params.num_voice_users = 0;
    params.num_data_users = 2;
    params.seed = 11;
    params.channel.mean_snr_db = -30.0;     // PER ~= 1 in every mode
    params.csi_error_sigma_db = 15.0;       // VR still believes it can send
    params.mean_data_interarrival_s = 1e9;  // no bursts, ever
    auto engine = protocols::make_protocol(id, params);
    engine->run(0.2, 0.3);  // attach users, materialize traffic streams
    const std::vector<common::Time> backlog(256, 0.1);
    for (auto& u : engine->users()) {
      u.data().push_front(backlog);
    }
    engine->run(0.0, 1.0);  // contend, queue up, grow scratch high water
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine->run(0.0, 1.0);
    // run() itself allocates once per call: its metrics reset rebuilds the
    // delay histogram. The 400-frame retransmission loop inside must add
    // nothing.
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed) - before, 1u);
    // The pin is vacuous unless the retransmission cycle actually ran. FR
    // attempts every granted slot; VR only when its (badly mistaken) CSI
    // estimate picks a mode, so its floor is lower.
    EXPECT_GT(engine->metrics().data_retransmissions,
              id == protocols::ProtocolId::kDtdmaFr ? 2000 : 50);
    EXPECT_EQ(engine->metrics().data_delivered, 0);
  }
}

TEST(FrameAlloc, CharismaDeepPoolRankingStaysAllocationFree) {
  // CHARISMA's per-frame scheduler over a pool where every user already
  // has a queued request: purge, the CSI-poll short-list, the Eq. (2)
  // ranking of the whole pool, the grant loop and — with the capacity-fair
  // extension — the per-competitor throughput bookkeeping. Same quiesced
  // setup as the ARQ test above: a hand-seeded, never-draining data
  // backlog (deep fade, wildly optimistic CSI), so every user holds one
  // pooled request for the whole counted window and no one contends.
  for (auto fairness :
       {core::FairnessMode::kNone, core::FairnessMode::kCapacityNormalized}) {
    SCOPED_TRACE(static_cast<int>(fairness));
    mac::ScenarioParams params;
    params.num_voice_users = 0;
    params.num_data_users = 24;
    params.seed = 11;
    params.channel.mean_snr_db = -20.0;     // PER ~= 1 in every mode
    params.csi_error_sigma_db = 15.0;       // yet modes get granted
    params.mean_data_interarrival_s = 1e9;  // no bursts, ever
    core::CharismaOptions options;
    options.fairness = fairness;
    core::CharismaProtocol engine(params, options);
    engine.run(0.2, 0.3);
    const std::vector<common::Time> backlog(256, 0.1);
    for (auto& u : engine.users()) {
      u.data().push_front(backlog);
    }
    engine.run(0.0, 1.0);  // everyone wins a request; scratch grows
    ASSERT_EQ(engine.pool_size(), 24u);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    const auto& m = engine.run(0.0, 1.0);
    // As above: one allocation for run()'s metrics reset; the frames add
    // nothing.
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed) - before, 1u);
    EXPECT_EQ(engine.pool_size(), 24u);
    // Not vacuous: the short-list was polled and the ranking granted slots.
    EXPECT_EQ(m.csi_polls, 4 * m.frames);
    EXPECT_GT(m.data_retransmissions, 200);
    EXPECT_EQ(m.request_successes, 0);
  }
}

}  // namespace
}  // namespace charisma::mac

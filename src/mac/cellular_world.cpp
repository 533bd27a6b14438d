#include "mac/cellular_world.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <experimental/simd>
#include <stdexcept>

#include "common/math.hpp"
#include "mac/attachment.hpp"

namespace charisma::mac {

namespace {
// Stream-id name spaces (see mobile_user.cpp for the per-user ones).
constexpr std::uint64_t kMobilityStream = 0x8000'0000ULL;
constexpr std::uint64_t kCellSeedStream = 0x9000'0000ULL;
constexpr double kTimeEps = 1e-9;
/// Pilot level of a dark cell: far below any real link budget, so neither
/// the hysteresis rule nor the initial argmax ever selects it.
constexpr double kDarkPilotDb = -1.0e9;

namespace stdx = std::experimental;
/// The widest double vector of the build's baseline ISA (two lanes under
/// x86-64's SSE2).
using Lanes = stdx::native_simd<double>;

/// The SINR plane's scratch: one cell's band member positions in
/// structure-of-arrays form and their INR accumulators, padded to whole
/// Lanes.
struct PlaneScratch {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> inr;

  /// Sizes the vectors for `members` (the padding lanes sit at the
  /// origin) and zeroes every accumulator.
  void reset(std::size_t members) {
    const std::size_t padded =
        (members + Lanes::size() - 1) / Lanes::size() * Lanes::size();
    x.resize(padded);
    y.resize(padded);
    std::fill(x.begin() + static_cast<std::ptrdiff_t>(members), x.end(), 0.0);
    std::fill(y.begin() + static_cast<std::ptrdiff_t>(members), y.end(), 0.0);
    inr.assign(padded, 0.0);
  }
};

/// interference_penalty_db's INR sum at every packed member position at
/// once, site-outer: each loaded co-channel site, ascending, adds
/// co_channel_inr's exact expression to every member's accumulator,
/// Lanes::size() members per instruction. A member thus adds the
/// reference's terms in its order, from 0.0, and the padding lanes compute
/// on positions nobody reads.
void add_co_channel_inr(const SiteLayout& layout,
                        std::span<const int> interferers,
                        std::span<const double> cell_load, double path_gain,
                        PlaneScratch& scratch) {
  const auto& offsets = layout.wrap_offsets();
  const Lanes min_sq(CellularWorld::kMinDistanceSqM2);
  for (const int s : interferers) {
    const double load = cell_load[static_cast<std::size_t>(s)];
    if (load <= 0.0) continue;
    const double gain = load * path_gain;
    const Vec2 site = layout.position(s);
    for (std::size_t i = 0; i < scratch.inr.size(); i += Lanes::size()) {
      const Lanes x(&scratch.x[i], stdx::element_aligned);
      const Lanes y(&scratch.y[i], stdx::element_aligned);
      // SiteLayout::distance_sq: the minimum over the wrap images, taken
      // in its order.
      Lanes dx = x - site.x;
      Lanes dy = y - site.y;
      Lanes d_sq = dx * dx + dy * dy;
      for (std::size_t k = 1; k < offsets.size(); ++k) {
        dx = x - (site.x + offsets[k].x);
        dy = y - (site.y + offsets[k].y);
        d_sq = stdx::min(d_sq, dx * dx + dy * dy);
      }
      const Lanes clamped = stdx::max(d_sq, min_sq);
      const Lanes d = stdx::sqrt(clamped);
      Lanes inr(&scratch.inr[i], stdx::element_aligned);
      inr += gain / (clamped * d * stdx::sqrt(d));
      inr.copy_to(&scratch.inr[i], stdx::element_aligned);
    }
  }
}

/// Scoped accumulator for the epoch-loop wall-clock split.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& bucket)
      : bucket_(bucket), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    bucket_ += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& bucket_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

CellularWorld::CellularWorld(const CellularConfig& config,
                             const EngineFactory& factory)
    : config_(config),
      mobility_(config.mobility, config.params.total_users(),
                common::RngStream(config.params.seed, kMobilityStream)) {
  if (!config.valid()) {
    throw std::invalid_argument("CellularWorld: invalid configuration");
  }
  if (!factory) {
    throw std::invalid_argument("CellularWorld: null engine factory");
  }
  layout_ = SiteLayout(config_.layout, config_.num_cells,
                       config_.mobility.field_width_m,
                       config_.mobility.field_height_m);
  cochannel_.reserve(static_cast<std::size_t>(config_.num_cells));
  for (int c = 0; c < config_.num_cells; ++c) {
    cochannel_.push_back(layout_.co_channel_interferers(c));
  }
  cells_.reserve(static_cast<std::size_t>(config_.num_cells));
  for (int c = 0; c < config_.num_cells; ++c) {
    // Decorrelated sub-seed per cell: the same user's links to different
    // base stations fade and shadow independently (independent sites),
    // which is precisely the diversity a handoff exploits.
    ScenarioParams cell_params = config_.params;
    cell_params.seed = common::derive_seed(
        config_.params.seed, kCellSeedStream + static_cast<std::uint64_t>(c));
    if (config_.mobility.speed_mps > 0.0) {
      // Shadowing decorrelates over distance travelled, not wall time.
      cell_params.channel.shadow_tau =
          kShadowDecorrelationM / config_.mobility.speed_mps;
    }
    // Engines start empty; the world admits each cell's pilot band below
    // (update_bands), so per-cell state scales with band occupancy.
    cell_params.defer_population = true;
    auto engine = factory(cell_params);
    if (!engine) {
      throw std::invalid_argument("CellularWorld: factory returned null");
    }
    cells_.push_back(std::move(engine));
  }
  pilot_alpha_ = 1.0 - std::exp(-kDecisionInterval / kPilotFilterTau);

  // Hoist the path-loss log10 into the per-site closed form
  //   db(d) = C - (K/2) * ln(max(d, d_min)²)
  // with C = mean_db + K * ln(d0) and K = 10 n / ln 10. Squared distances
  // feed the ln directly, so the mean plane pays one ln per member and no
  // sqrt. The interference plane sums linear INRs, so it takes the same
  // model as G · (d²)^(-n/4) with G = 10^(C/10): co_channel_inr's two
  // square roots and a division instead of a ln and a pow per site.
  path_loss_c_db_ = config_.params.channel.mean_snr_db +
                    2.0 * kPathLossHalfK * std::log(kReferenceDistanceM);
  static_assert(kPathLossExponent == 3.5,
                "co_channel_inr evaluates d^-3.5 as 1 / (d² · d · √d); "
                "another exponent needs another closed form");
  path_gain_ = common::from_db(path_loss_c_db_);

  unsigned threads = config_.num_threads == 0
                         ? std::thread::hardware_concurrency()
                         : config_.num_threads;
  if (threads == 0) threads = 1;  // hardware_concurrency may report 0
  // Shard resolution: 0 = match the requested thread count (so a parallel
  // world shards its coordinator plane by default), clamped to the
  // population — an empty shard would never refresh its proposal arena.
  const auto users_u =
      static_cast<unsigned>(std::max(1, config_.params.total_users()));
  num_shards_ = config_.num_shards == 0 ? threads : config_.num_shards;
  num_shards_ = std::min(std::max(num_shards_, 1u), users_u);
  // A round never has more indices than max(cells, shards); surplus
  // workers would only be woken twice per epoch to claim nothing.
  threads = std::min(
      threads, std::max(static_cast<unsigned>(config_.num_cells), num_shards_));
  pool_ = std::make_unique<experiment::WorkerPool>(threads);

  const auto users = static_cast<std::size_t>(config_.params.total_users());
  site_index_.rebuild(layout_, config_.pilot_band_radius_m);
  attached_.assign(users, 0);
  band_.assign(users, {});
  shard_arenas_.resize(num_shards_);
  plane_rows_.assign(static_cast<std::size_t>(config_.num_cells), {});
  attach_counts_.assign(static_cast<std::size_t>(config_.num_cells), 0);
  cell_load_.assign(static_cast<std::size_t>(config_.num_cells), 0.0);
  if (interference_enabled()) {
    interference_rows_.assign(static_cast<std::size_t>(config_.num_cells), {});
  }
  if (!config_.outages.empty()) {
    dark_.assign(static_cast<std::size_t>(config_.num_cells), 0);
    prev_dark_ = dark_;
    update_outage_flags(0.0);
    prev_dark_ = dark_;  // no recovery transition at t = 0
  }
  // Admit the initial bands (attachment does not exist yet, so geometry
  // alone decides membership), then take the first pilot snapshot — it
  // sees zero loads (nobody is attached yet); initialize_attachments then
  // seeds the loads the first epoch uses.
  update_bands(/*include_attached=*/false);
  resize_plane_rows();
  update_snr_planes();
  initialize_attachments();
  update_cell_loads();
}

int CellularWorld::attached_count(int c) const {
  const int n = attach_counts_.at(static_cast<std::size_t>(c));
#ifndef NDEBUG
  int scan = 0;
  for (const int cell : attached_) scan += cell == c ? 1 : 0;
  assert(scan == n && "attach_counts_ out of sync with attached_");
#endif
  return n;
}

std::vector<int> CellularWorld::band_cells(common::UserId user) const {
  std::vector<int> out;
  const auto& band = band_.at(static_cast<std::size_t>(user));
  out.reserve(band.size());
  for (const BandPilot& e : band) out.push_back(e.cell);
  return out;
}

void CellularWorld::advance_mobility(common::Time t) {
  // Phase A (sharded): walk every trajectory draw-free, suspending
  // random-waypoint arrivals with their exact walk state.
  pool_->for_each_range(attached_.size(), num_shards_,
                        [this, t](std::size_t s, std::size_t begin,
                                  std::size_t end) {
    auto& arena = shard_arenas_[s];
    arena.suspended.clear();
    mobility_.advance_span(t, static_cast<int>(begin), static_cast<int>(end),
                           arena.suspended);
  });
  // Phase B (coordinator): finish the suspended walks in ascending user
  // order — shards cover ascending contiguous ranges, so arena order is
  // user order — consuming the shared stream exactly as serial advance_to
  // would.
  for (auto& arena : shard_arenas_) {
    mobility_.resume(arena.suspended);
  }
  mobility_.commit(t);
}

void CellularWorld::propose_bands(bool include_attached) {
  pool_->for_each_range(attached_.size(), num_shards_,
                        [this, include_attached](std::size_t s,
                                                 std::size_t begin,
                                                 std::size_t end) {
    auto& arena = shard_arenas_[s];
    arena.band_users.clear();
    arena.band_cells.clear();
    arena.band_offsets.clear();
    arena.band_offsets.push_back(0);
    for (std::size_t u = begin; u < end; ++u) {
      const std::size_t tail = arena.band_cells.size();
      site_index_.cells_near(mobility_.position(static_cast<int>(u)),
                             arena.band_cells);
      if (include_attached) {
        // The attached cell is pinned into the band whatever the geometry
        // says: presence must never be released out from under the user.
        const int a = attached_[u];
        const auto first =
            arena.band_cells.begin() + static_cast<std::ptrdiff_t>(tail);
        const auto it = std::lower_bound(first, arena.band_cells.end(), a);
        if (it == arena.band_cells.end() || *it != a) {
          arena.band_cells.insert(it, a);
        }
      }
      // Only a changed band reaches the coordinator.
      const auto proposed =
          arena.band_cells.begin() + static_cast<std::ptrdiff_t>(tail);
      const auto& band = band_[u];
      if (std::equal(proposed, arena.band_cells.end(), band.begin(),
                     band.end(),
                     [](int c, const BandPilot& e) { return c == e.cell; })) {
        arena.band_cells.resize(tail);
        continue;
      }
      arena.band_users.push_back(static_cast<int>(u));
      arena.band_offsets.push_back(
          static_cast<std::uint32_t>(arena.band_cells.size()));
    }
  });
}

void CellularWorld::apply_band_proposals() {
  // Coordinator merge of the changed bands, ascending user id throughout
  // (shards cover ascending contiguous ranges): every engine sees admits
  // and releases in the same deterministic sequence regardless of shard
  // or thread count, so the banks' free lists — and with them every later
  // draw — are bit-identical between serial and parallel runs.
  const std::size_t shards =
      std::min<std::size_t>(num_shards_, attached_.size());
  for (std::size_t s = 0; s < shards; ++s) {
    const auto& arena = shard_arenas_[s];
    for (std::size_t k = 0; k < arena.band_users.size(); ++k) {
      const std::uint32_t lo = arena.band_offsets[k];
      const std::uint32_t hi = arena.band_offsets[k + 1];
      update_user_band(arena.band_users[k],
                       {arena.band_cells.data() + lo, hi - lo});
    }
  }
}

void CellularWorld::update_user_band(int u, std::span<const int> cells) {
  auto& band = band_[static_cast<std::size_t>(u)];
  // Two-pointer diff old band vs. new cell set (both ascending).
  band_scratch_.clear();
  std::size_t i = 0;
  const auto uid = static_cast<common::UserId>(u);
  for (const int c : cells) {
    while (i < band.size() && band[i].cell < c) {
      cells_[static_cast<std::size_t>(band[i].cell)]->band_release(uid);
      ++i;
    }
    if (i < band.size() && band[i].cell == c) {
      band_scratch_.push_back(band[i]);  // staying: keep the filter state
      ++i;
    } else {
      const MobileUser& mu =
          cells_[static_cast<std::size_t>(c)]->band_admit(uid);
      band_scratch_.push_back(BandPilot{c, mu.slot(), 0.0, true});
    }
  }
  while (i < band.size()) {
    cells_[static_cast<std::size_t>(band[i].cell)]->band_release(uid);
    ++i;
  }
  band.swap(band_scratch_);
}

void CellularWorld::update_bands(bool include_attached) {
  propose_bands(include_attached);
  apply_band_proposals();
}

void CellularWorld::resize_plane_rows() {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const std::size_t rows = cells_[c]->channel_bank().size();
    if (plane_rows_[c].size() < rows) plane_rows_[c].resize(rows, 0.0);
    if (interference_enabled() && interference_rows_[c].size() < rows) {
      interference_rows_[c].resize(rows, 0.0);
    }
  }
}

bool CellularWorld::is_dark(int c, common::Time t) const {
  for (const auto& o : config_.outages) {
    if (o.cell == c && t >= o.start - kTimeEps && t < o.end - kTimeEps) {
      return true;
    }
  }
  return false;
}

void CellularWorld::update_outage_flags(common::Time t) {
  if (dark_.empty()) return;
  prev_dark_ = dark_;
  for (int c = 0; c < config_.num_cells; ++c) {
    dark_[static_cast<std::size_t>(c)] = is_dark(c, t) ? 1 : 0;
  }
}

double CellularWorld::mean_snr_at_distance_db(double d_m) const {
  const double d_sq = std::max(d_m * d_m, kMinDistanceSqM2);
  return path_loss_c_db_ - kPathLossHalfK * std::log(d_sq);
}

void CellularWorld::update_cell_snr_plane(int c) {
  // Share-nothing per-cell task: touches only this cell's bank, plane
  // rows and metrics, reading the (quiescent) mobility positions, band
  // memberships and the coordinator-frozen load vector. Work is O(band),
  // never users × cells.
  auto& cell = *cells_[static_cast<std::size_t>(c)];
  const auto& band = cell.band();
  auto& bank = cell.channel_bank();
  const std::size_t rows = bank.size();
  const bool interf = interference_enabled();
  double* row = plane_rows_[static_cast<std::size_t>(c)].data();
  // One scratch per worker thread, so its memory scales with the worker
  // count and not with cells × band: a worker's vectors grow to the
  // largest band it has planed and are reused after.
  thread_local PlaneScratch scratch;
  if (interf) scratch.reset(band.size());
  for (std::size_t i = 0; i < band.size(); ++i) {
    const BandMember& m = band[i];
    const Vec2 pos = mobility_.position(static_cast<int>(m.id));
    const double d_sq =
        std::max(layout_.distance_sq(pos, c), kMinDistanceSqM2);
    row[m.slot] = path_loss_c_db_ - kPathLossHalfK * std::log(d_sq);
    if (interf) {
      scratch.x[i] = pos.x;
      scratch.y[i] = pos.y;
    }
  }
  // Same per-cell bank-op order as the dense world: mean plane,
  // interference plane, pilot snapshot. The snapshot reads every band
  // member, so under the lazy schedule the epoch is a full band re-anchor,
  // bounding any member's deferred-jump stride by the epoch period. A
  // dark cell's bank is still fed the true plane (fading state and draw
  // order must not depend on the outage schedule); only the *broadcast*
  // pilot vanishes, which the blend imposes from the dark flags without
  // ever reading the snapshot.
  bank.set_mean_snr_db_all({row, rows});
  if (interf) {
    add_co_channel_inr(layout_, cochannel_[static_cast<std::size_t>(c)],
                       cell_load_, path_gain_, scratch);
    // The penalty mean sums in band (== id) order, the historical
    // accumulation order.
    double* irow = interference_rows_[static_cast<std::size_t>(c)].data();
    double penalty_sum = 0.0;
    for (std::size_t i = 0; i < band.size(); ++i) {
      const std::uint32_t slot = band[i].slot;
      irow[slot] = common::to_db(1.0 + scratch.inr[i]);
      penalty_sum += irow[slot];
    }
    bank.set_interference_db_all({irow, rows});
    cell.note_interference_epoch(
        band.empty() ? 0.0
                     : penalty_sum / static_cast<double>(band.size()));
  }
  bank.snr_db_all({row, rows});
}

void CellularWorld::update_snr_planes() {
  pool_->for_each(cells_.size(), [this](std::size_t c) {
    update_cell_snr_plane(static_cast<int>(c));
  });
}

void CellularWorld::update_cell_loads() {
  if (!interference_enabled()) return;
  std::fill(cell_load_.begin(), cell_load_.end(), 0.0);
  for (const int c : attached_) {
    cell_load_[static_cast<std::size_t>(c)] += config_.interference_activity;
  }
}

void CellularWorld::blend_user_pilots(std::size_t u) {
  // Band-local pilot filtering: the user's band entries blend their
  // cell's slot-indexed snapshot row, cell-ascending — the dense plane's
  // exact per-user scan order. Per-user arithmetic is independent, so the
  // shards' interleaving across users cannot change a bit.
  const bool outages = !dark_.empty();
  for (BandPilot& e : band_[u]) {
    const auto c = static_cast<std::size_t>(e.cell);
    if (outages) {
      if (dark_[c]) {
        // No pilot to filter: hard floor. The entry counts as seeded —
        // recovery restarts the filter from a fresh snapshot anyway.
        e.pilot_db = kDarkPilotDb;
        e.fresh = false;
        continue;
      }
      if (prev_dark_[c]) {
        // Recovery: restart the filter from the fresh snapshot instead
        // of decaying away from the sentinel over ~5 tau.
        e.pilot_db = plane_rows_[c][e.slot];
        e.fresh = false;
        continue;
      }
    }
    if (e.fresh) {
      // First snapshot this entry ever sees (band entry, or the world's
      // initial blend): the pilot *is* the snapshot.
      e.pilot_db = plane_rows_[c][e.slot];
      e.fresh = false;
      continue;
    }
    e.pilot_db += pilot_alpha_ * (plane_rows_[c][e.slot] - e.pilot_db);
  }
}

void CellularWorld::initialize_attachments() {
  const int users = config_.params.total_users();
  for (int u = 0; u < users; ++u) {
    // Every band entry is fresh (or dark) here, so the blend takes the
    // first snapshot as the pilot.
    blend_user_pilots(static_cast<std::size_t>(u));
    const auto& band = band_[static_cast<std::size_t>(u)];
    // Strict-> argmax over the band in ascending cell order — the dense
    // all-cells scan, restricted to residency.
    std::size_t best = 0;
    for (std::size_t i = 1; i < band.size(); ++i) {
      if (band[i].pilot_db > band[best].pilot_db) best = i;
    }
    const int best_cell = band[best].cell;
    attached_[static_cast<std::size_t>(u)] = best_cell;
    ++attach_counts_[static_cast<std::size_t>(best_cell)];
    // Initial placement, not a handoff: presence plus traffic, no
    // counters, no state carry. Band shells elsewhere stay absent.
    cells_[static_cast<std::size_t>(best_cell)]->attach_user_initial(
        static_cast<common::UserId>(u));
  }
}

bool CellularWorld::decide_user(int u, ShardArena& arena, AttachMove& move) {
  const auto& band = band_[static_cast<std::size_t>(u)];
  const int from = attached_[static_cast<std::size_t>(u)];
  if (cell_dark(from)) {
    // Forced eviction: the serving cell went dark. Hysteresis does not
    // apply — there is nothing to stick to — so the user takes its
    // strongest lit band pilot. With the whole band dark the user stays
    // put and rides out the outage on the dead cell.
    std::size_t best = band.size();
    for (std::size_t i = 0; i < band.size(); ++i) {
      if (cell_dark(band[i].cell)) continue;
      if (best == band.size() || band[i].pilot_db > band[best].pilot_db) {
        best = i;
      }
    }
    if (best < band.size()) {
      move = AttachMove{u, band[best].cell, /*evict=*/true};
      return true;
    }
    return false;
  }
  // Gather the band's pilots contiguously for the shared attachment
  // rule; the attached cell is always band-resident (the band update pins
  // it), so its index is well-defined.
  arena.pilot_scratch.clear();
  arena.cell_of_scratch.clear();
  int attached_idx = -1;
  for (std::size_t i = 0; i < band.size(); ++i) {
    arena.pilot_scratch.push_back(band[i].pilot_db);
    arena.cell_of_scratch.push_back(band[i].cell);
    if (band[i].cell == from) attached_idx = static_cast<int>(i);
  }
  assert(attached_idx >= 0 && "attached cell missing from band");
  const int pick = strongest_with_hysteresis(
      {arena.pilot_scratch.data(), arena.pilot_scratch.size()}, attached_idx,
      config_.handoff_hysteresis_db);
  const int to = arena.cell_of_scratch[static_cast<std::size_t>(pick)];
  if (to != from) {
    move = AttachMove{u, to, /*evict=*/false};
    return true;
  }
  return false;
}

void CellularWorld::decide_attachments() {
  // Sharded blend + decision. Every blend reads only the frozen snapshot
  // rows and the user's own band entries; every decision reads only the
  // user's own blended pilots and attached cell. Nothing a proposed move
  // will later mutate (engines, attached_, attach_counts_) feeds another
  // user's same-epoch decision, so deferring the moves to the coordinator
  // replay is bit-equivalent to the historical interleaved execution.
  pool_->for_each_range(attached_.size(), num_shards_,
                        [this](std::size_t s, std::size_t begin,
                               std::size_t end) {
    auto& arena = shard_arenas_[s];
    arena.moves.clear();
    AttachMove move;
    for (std::size_t u = begin; u < end; ++u) {
      blend_user_pilots(u);
      if (decide_user(static_cast<int>(u), arena, move)) {
        arena.moves.push_back(move);
      }
    }
  });
}

void CellularWorld::apply_attachment_moves() {
  // Coordinator replay, ascending user id (shards cover ascending
  // contiguous ranges): every engine mutation and RNG draw lands in the
  // serial execution order.
  const std::size_t shards =
      std::min<std::size_t>(num_shards_, attached_.size());
  for (std::size_t s = 0; s < shards; ++s) {
    for (const AttachMove& m : shard_arenas_[s].moves) move_user(m);
  }
}

void CellularWorld::move_user(const AttachMove& move) {
  const auto user = static_cast<common::UserId>(move.user);
  const auto u = static_cast<std::size_t>(move.user);
  const auto from = static_cast<std::size_t>(attached_[u]);
  const auto to = static_cast<std::size_t>(move.to);
  auto& source = *cells_[from];
  auto& target = *cells_[to];
  // Carry the service state over, then drop what cannot survive the break:
  // the in-flight voice packet dies in transit (counted by the source cell
  // as voice_dropped_handoff, or voice_dropped_outage for an eviction);
  // the data backlog rides along. The target counts handoffs_in either
  // way, so world-wide: sum(handoffs_in) == sum(handoffs_out) +
  // sum(outage_evictions).
  target.user(user).adopt_service_state(source.user(user));
  target.user(user).drop_pending_voice();
  if (move.evict) {
    source.evict_user(user);
  } else {
    source.detach_user(user);
    ++handoffs_;
  }
  target.attach_user(user);
  attached_[u] = move.to;
  --attach_counts_[from];
  ++attach_counts_[to];
}

void CellularWorld::apply_traffic_modulation(common::Time t) {
  if (config_.modulation.kind == traffic::TrafficModulationConfig::Kind::kNone) {
    return;
  }
  // Sharded: each user's rescale touches only its own sources (a pure
  // member write), and the engine lookup is a read-only binary search.
  pool_->for_each_range(attached_.size(), num_shards_,
                        [this, t](std::size_t, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const Vec2 pos = mobility_.position(static_cast<int>(u));
      const double scale =
          traffic::rate_scale(config_.modulation, t, pos.x, pos.y);
      auto& mu = cells_[static_cast<std::size_t>(attached_[u])]->user(
          static_cast<common::UserId>(u));
      if (mu.is_voice()) {
        mu.voice().set_rate_scale(scale);
      } else {
        mu.data().set_rate_scale(scale);
      }
    }
  });
}

void CellularWorld::run_window(common::Time duration) {
  common::Time remaining = duration;
  while (remaining > kTimeEps) {
    const common::Time dt = std::min(kDecisionInterval, remaining);
    // Epoch structure: the world plane — mobility, band rosters, pilot
    // blending, the attachment rule — is computed in parallel over
    // contiguous user-id shards that emit proposals; the coordinator
    // merges every proposal in ascending user-id order between the
    // barriers (those steps consume RNG and mutate pairs of engines);
    // each cell re-anchors its SNR/SINR plane and burns an epoch of MAC
    // frames in share-nothing parallel cell tasks. Every RNG-consuming
    // or engine-mutating step runs on the coordinator in the serial
    // order, so metrics are bit-identical at any shard and thread count.
    {
      PhaseTimer timer(timings_.shard_plane_s);
      advance_mobility(now_ + dt);
    }
    {
      // Outage flags for the epoch [now_, now_ + dt) are frozen here,
      // before the parallel plane tasks read them.
      PhaseTimer timer(timings_.serial_plane_s);
      update_outage_flags(now_);
    }
    {
      // Band maintenance from the new positions: entering users are
      // admitted, leavers released — except each user's attached cell,
      // which stays pinned until a handoff moves the user.
      PhaseTimer timer(timings_.shard_plane_s);
      propose_bands(/*include_attached=*/true);
    }
    {
      PhaseTimer timer(timings_.serial_plane_s);
      apply_band_proposals();
      // The plane rows grow to any new bank rows before the parallel
      // tasks use them.
      resize_plane_rows();
    }
    {
      PhaseTimer timer(timings_.cell_plane_s);
      PhaseTimer snr_timer(timings_.snr_plane_s);
      update_snr_planes();
    }
    {
      PhaseTimer timer(timings_.shard_plane_s);
      decide_attachments();
    }
    {
      PhaseTimer timer(timings_.serial_plane_s);
      apply_attachment_moves();
    }
    {
      PhaseTimer timer(timings_.shard_plane_s);
      apply_traffic_modulation(now_);
    }
    {
      // The load aggregation that drives the next epoch's interference.
      PhaseTimer timer(timings_.serial_plane_s);
      update_cell_loads();
    }
    {
      PhaseTimer timer(timings_.cell_plane_s);
      pool_->for_each(cells_.size(),
                      [this, dt](std::size_t c) { cells_[c]->advance_by(dt); });
    }
    ++timings_.epochs;
    now_ += dt;
    remaining -= dt;
  }
}

void CellularWorld::advance(common::Time duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("CellularWorld::advance: negative duration");
  }
  run_window(duration);
}

void CellularWorld::run(common::Time warmup, common::Time measure) {
  if (warmup < 0.0 || measure <= 0.0) {
    throw std::invalid_argument("CellularWorld::run: invalid durations");
  }
  run_window(warmup);
  for (auto& cell : cells_) {
    cell->reset_metrics();
  }
  handoffs_ = 0;
  timings_ = EpochTimings{};
  run_window(measure);
}

ProtocolMetrics CellularWorld::aggregate_metrics() const {
  ProtocolMetrics aggregate;
  for (const auto& cell : cells_) {
    aggregate.merge(cell->metrics());
    // The cells keep their ledgers band-local; the dense by-id view is
    // built here, as long as the longest per-cell vector used to be.
    cell->add_deliveries_by_user(aggregate.per_user_delivered);
  }
  return aggregate;
}

}  // namespace charisma::mac

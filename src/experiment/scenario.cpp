#include "experiment/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/units.hpp"

namespace charisma::experiment {

const std::vector<std::string> kWorldOnlyKeys = {
    "threads", "shards", "band", "interference", "layout", "reuse", "wrap",
    "mobility", "handoff_hysteresis_db", "cell_radius_m", "verify",
    "outage", "flash", "diurnal"};

const std::vector<std::string> kScenarioKeys = {
    "help", "protocol", "voice_users", "data_users", "queue", "seed",
    "warmup", "measure", "replications", "sweep", "x", "mean_snr_db",
    "shadow_sigma_db", "doppler_hz", "kmh", "diversity", "fixed_ref_db",
    "target_ber", "csi_noise_db", "csi_validity_frames", "ack_loss",
    "tx_power_w", "channel", "traffic_rng", "cells", "threads", "shards",
    "handoff_hysteresis_db", "mobility",
    "cell_radius_m", "layout", "reuse", "wrap", "band", "interference",
    "verify",
    "request_slots", "info_slots", "pilot_slots", "talkspurt_s", "silence_s",
    "burst_packets", "interarrival_s", "pv", "pd", "overload", "mmpp_ratio",
    "mmpp_sojourn_s", "barring", "outage", "flash", "diurnal", "fairness",
    "csi_refresh", "poll_budget", "alpha_voice", "alpha_data", "gamma_voice",
    "gamma_data", "voice_offset", "csv"};

namespace {

// The reference text of every key above; ScenarioRecipe.HelpNamesEveryKey
// keeps the two in step.
constexpr std::string_view kHelp = R"(Core:
  protocol=charisma|dtdma_vr|dtdma_fr|drma|rama|rmav|prma|all
                       all runs the paper's six protocols; prma, an
                       extension baseline, runs only as protocol=prma
  voice_users=N data_users=N queue=0|1 seed=N
                       population counts accept magnitude suffixes:
                       voice_users=250k, data_users=1M (k = 1e3, M = 1e6)
  warmup=SECONDS measure=SECONDS replications=N

Sweeps (optional):
  sweep=voice|data     x=10,20,40,...   (runs the grid instead of one cell)

Radio / PHY:
  mean_snr_db=F shadow_sigma_db=F doppler_hz=F kmh=F diversity=N
  fixed_ref_db=F target_ber=F csi_noise_db=F csi_validity_frames=N
  ack_loss=F tx_power_w=F
  channel=eager|lazy   channel materialization schedule: eager advances
                       every user every frame (default; legacy results are
                       bit-identical); lazy moves a frame clock in O(1) and
                       materializes only touched/read users via the
                       closed-form jump (statistically exact, different
                       realization). The "chan stride" column reports the
                       mean user-frames folded into one jump.
  traffic_rng=mt|compact  generator behind the per-user traffic/MAC
                       streams: mt (default) is the historical mt19937_64
                       (legacy results bit-identical); compact swaps in
                       ~24-byte splitmix64 counter streams — statistically
                       equivalent, a different realization, and the
                       per-attached-user memory floor of very large
                       sparse worlds collapses by ~two orders of
                       magnitude. Channel/base-station streams keep mt.

Mobility / multi-cell (cells >= 2 enables the CellularWorld scenario; a
single-cell run rejects every knob below except cells= and kmh=):
  cells=N              base stations, one protocol engine each (default 1)
  threads=N            worker threads stepping cells in parallel; 0 =
                       hardware concurrency (default 1 = serial; results
                       are bit-identical at any setting)
  shards=N             coordinator shards: the world plane (mobility, band
                       rosters, pilot filtering, attachment rule) is
                       computed over N contiguous user-id ranges in
                       parallel, proposals merged in user order; 0 =
                       match the thread count (default 0; results are
                       bit-identical at any setting)
  kmh=F                user speed (>= 0); also sets the Doppler spread
                       (default 50); a parked kmh=0 needs doppler_hz=F
  handoff_hysteresis_db=F  strongest-pilot margin before handoff (default 4)
  mobility=waypoint|vector random-waypoint or constant-velocity (default
                       waypoint)
  cell_radius_m=F      half the site spacing; field scales with cells
                       (default 500)
  layout=line|hex      site geometry: sites on the field midline, or
                       hexagonal rings (full rings at 1/7/19/... cells;
                       the field is sized to the grid) (default line)
  reuse=N              frequency-reuse factor — only co-channel cells
                       interfere (hex needs 1, 3, 4, 7, 9, 12, ...;
                       default 1 = every cell on the same channel)
  wrap=0|1             wrap distances around a full-ring hex cluster
                       (removes layout-edge effects; needs reuse=1 or one
                       channel per cell; default 0)
  band=F               pilot-band radius in metres: a user holds channel
                       and protocol state only in cells within this
                       distance (sparse presence, memory O(band) per
                       user). 0 = every cell, the historical dense world,
                       bit for bit (default 0). A finite radius should
                       cover the attachment geometry (>= site spacing).
  interference=F       per-attached-user activity factor of the uplink
                       co-channel interference (SINR) plane; 0 disables
                       (default 0.4 for layout=hex, 0 for line)
  verify=0|1           re-run each point with threads=1 and require
                       bit-identical metrics + a non-empty window (the
                       interference_world_smoke ctest; default 0)
  In this mode the table gains handoff and mean-SINR-penalty columns;
  mean_snr_db is the link budget at the path-loss reference distance.

Geometry:
  request_slots=N info_slots=N pilot_slots=N

Traffic:
  talkspurt_s=F silence_s=F burst_packets=F interarrival_s=F pv=F pd=F
  overload=F           multiplies both populations (flash-crowd style
                       offered load: overload=5 is 5x nominal; default 1)
  mmpp_ratio=F mmpp_sojourn_s=F
                       Markov-modulated data arrivals: the burst process
                       alternates between a nominal and a ratio-times-
                       hotter state with exponential sojourns (ratio >= 1;
                       sojourn 0 disables; defaults 1 / 0)

Overload survival (robustness scenarios):
  barring=0|1          closed-loop access-class barring in every engine:
                       a per-cell controller tightens/relaxes the
                       contention admission probability on its smoothed
                       load (default 0; the legacy results are
                       bit-identical with barring=0)
  outage=C:S:E[,...]   cell C is dark (no pilot, users evicted) from S to
                       E seconds, repeatable; needs cells >= 2
  flash=X:Y:R:M:S:E    flash crowd: users within R metres of (X, Y) offer
                       M-times traffic during [S, E); needs cells >= 2
  diurnal=A:P[:W]      sinusoidal load tide: amplitude A, period P
                       seconds, spatial wavelength W metres (default
                       2000); needs cells >= 2

CHARISMA options:
  fairness=0|1 csi_refresh=0|1 poll_budget=N
  alpha_voice=F alpha_data=F gamma_voice=F gamma_data=F voice_offset=F

Output:
  csv=FILE (also prints the table)  help=1
)";

// The one range check behind every numeric knob: throws naming `key` when
// `value` (the knob's text is `text`) lies outside `domain`.
void require(const std::string& key, double value, const std::string& text,
             const Domain& domain) {
  if (!domain.contains(value)) {
    throw std::invalid_argument(key + "= must be " + domain.describe() +
                                ", got '" + text + "'");
  }
}

// The entries of the list knob `key` given as `value` ("a,b,c"), each
// converted by `parse` and then passed to `check` with its text; throws
// naming the knob on an empty list or an entry `parse` rejects.
template <class Parse, class Check>
auto parse_list(const std::string& key, const std::string& value,
                Parse parse, Check check) {
  if (value.empty()) {
    throw std::invalid_argument(key + "= must list at least one value");
  }
  std::vector<decltype(parse(value))> values;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      values.push_back(parse(token));
    } catch (const std::exception&) {
      throw std::invalid_argument(key + "=: bad value '" + token + "' in '" +
                                  value + "'");
    }
    check(values.back(), token);
  }
  return values;
}

// Splits "a:b:c" into finite doubles; throws naming the knob on malformed
// input.
std::vector<double> parse_colon_list(const std::string& key,
                                     const std::string& value) {
  std::vector<double> fields;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ':')) {
    try {
      std::size_t pos = 0;
      fields.push_back(std::stod(token, &pos));
      if (pos != token.size()) throw std::invalid_argument("trailing");
      if (!std::isfinite(fields.back())) {
        throw std::invalid_argument("not finite");
      }
    } catch (const std::exception&) {
      throw std::invalid_argument(key + "=: bad field '" + token + "' in '" +
                                  value + "'");
    }
  }
  return fields;
}

mac::ScenarioParams scenario_from(const common::KeyValueConfig& config) {
  mac::ScenarioParams params;
  params.num_voice_users = read_count(config, "voice_users", 80);
  params.num_data_users = read_count(config, "data_users", 0);
  params.request_queue = config.get_bool_or("queue", true);
  params.seed = static_cast<std::uint64_t>(config.get_int_or("seed", 1));

  params.channel.mean_snr_db =
      config.get_double_or("mean_snr_db", params.channel.mean_snr_db);
  params.channel.shadow_sigma_db = read_double(
      config, "shadow_sigma_db", params.channel.shadow_sigma_db, kNonNegative);
  if (config.contains("kmh")) {
    const double kmh = read_double(config, "kmh", 50.0, kNonNegative);
    params.channel.doppler_hz = channel::ChannelConfig::doppler_for_speed(
        common::km_per_hour(kmh), 2.0e9);
  }
  if (!config.contains("doppler_hz") && params.channel.doppler_hz <= 0.0) {
    // A parked population (kmh=0) still needs a Doppler spread to fade.
    throw std::invalid_argument(
        "kmh= must be > 0 unless doppler_hz= sets the Doppler spread");
  }
  params.channel.doppler_hz = read_double(
      config, "doppler_hz", params.channel.doppler_hz, kPositive);
  params.channel.diversity_branches = read_int(
      config, "diversity", params.channel.diversity_branches, kAtLeastOne);

  params.fixed_phy_reference_db =
      config.get_double_or("fixed_ref_db", params.fixed_phy_reference_db);
  params.phy.target_ber = read_double(config, "target_ber",
                                      params.phy.target_ber,
                                      Domain{0.0, 0.5, true, true});
  params.csi_error_sigma_db = read_double(
      config, "csi_noise_db", params.csi_error_sigma_db, kNonNegative);
  params.csi_validity_frames = read_int(
      config, "csi_validity_frames", params.csi_validity_frames, kAtLeastOne);
  params.ack_loss_prob =
      read_double(config, "ack_loss", 0.0, kLossProbability);
  params.energy.tx_power_w = read_double(
      config, "tx_power_w", params.energy.tx_power_w, kNonNegative);

  params.geometry.num_request_slots =
      read_int(config, "request_slots", params.geometry.num_request_slots,
               kAtLeastOne);
  params.geometry.num_info_slots = read_int(
      config, "info_slots", params.geometry.num_info_slots, kAtLeastOne);
  params.geometry.num_pilot_slots = read_int(
      config, "pilot_slots", params.geometry.num_pilot_slots, kNonNegative);

  params.mean_talkspurt_s =
      read_double(config, "talkspurt_s", params.mean_talkspurt_s, kPositive);
  params.mean_silence_s =
      read_double(config, "silence_s", params.mean_silence_s, kPositive);
  params.mean_burst_packets = read_double(
      config, "burst_packets", params.mean_burst_packets, kAtLeastOne);
  params.mean_data_interarrival_s = read_double(
      config, "interarrival_s", params.mean_data_interarrival_s, kPositive);
  params.voice_permission_prob =
      read_double(config, "pv", params.voice_permission_prob, kProbability);
  params.data_permission_prob =
      read_double(config, "pd", params.data_permission_prob, kProbability);

  const double overload = read_double(config, "overload", 1.0, kPositive);
  const double voice = std::round(params.num_voice_users * overload);
  const double data = std::round(params.num_data_users * overload);
  if (voice + data > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "overload= scales the population past the largest int");
  }
  params.num_voice_users = static_cast<int>(voice);
  params.num_data_users = static_cast<int>(data);

  params.data_mmpp_rate_ratio = read_double(
      config, "mmpp_ratio", params.data_mmpp_rate_ratio, kAtLeastOne);
  params.data_mmpp_mean_sojourn_s =
      read_double(config, "mmpp_sojourn_s", params.data_mmpp_mean_sojourn_s,
                  kNonNegative);
  params.barring = config.get_bool_or("barring", false);

  const std::string chan = config.get_string_or("channel", "eager");
  if (chan != "eager" && chan != "lazy") {
    throw std::invalid_argument("channel= must be eager or lazy");
  }
  params.lazy_channel = chan == "lazy";

  const std::string rng = config.get_string_or("traffic_rng", "mt");
  if (rng != "mt" && rng != "compact") {
    throw std::invalid_argument("traffic_rng= must be mt or compact");
  }
  params.traffic_rng =
      rng == "compact" ? common::RngKind::kCompact : common::RngKind::kMt;
  return params;
}

core::CharismaOptions charisma_options_from(
    const common::KeyValueConfig& config) {
  core::CharismaOptions options;
  options.fairness = config.get_bool_or("fairness", false)
                         ? core::FairnessMode::kCapacityNormalized
                         : core::FairnessMode::kNone;
  // Without poll_budget= the budget is the geometry's pilot slots;
  // csi_refresh=0 turns the §4.4 refresh off, which is a budget of 0.
  if (config.contains("poll_budget")) {
    options.csi_poll_budget = read_int(config, "poll_budget", 0, kNonNegative);
  }
  if (!config.get_bool_or("csi_refresh", true)) options.csi_poll_budget = 0;
  auto& weights = options.priority;
  weights.alpha_voice =
      read_double(config, "alpha_voice", weights.alpha_voice, kNonNegative);
  weights.alpha_data =
      read_double(config, "alpha_data", weights.alpha_data, kNonNegative);
  weights.gamma_voice =
      read_double(config, "gamma_voice", weights.gamma_voice, kNonNegative);
  weights.gamma_data =
      read_double(config, "gamma_data", weights.gamma_data, kNonNegative);
  weights.voice_offset =
      read_double(config, "voice_offset", weights.voice_offset, kNonNegative);
  return options;
}

std::vector<protocols::ProtocolId> protocols_from(
    const common::KeyValueConfig& config) {
  const std::string name = config.get_string_or("protocol", "charisma");
  if (name == "all") return protocols::all_protocols();
  try {
    return {protocols::parse_protocol(name)};
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "protocol= must be charisma, dtdma_vr, dtdma_fr, drma, rama, rmav, "
        "prma or all, got '" + name + "'");
  }
}

// The world recipe (see the header) over the single-cell `params`.
mac::CellularConfig cellular_from(const common::KeyValueConfig& config,
                                  const mac::ScenarioParams& params) {
  mac::CellularConfig world;
  world.num_cells = read_int(config, "cells", 1, kAtLeastOne);
  world.num_threads =
      static_cast<unsigned>(read_int(config, "threads", 1, kNonNegative));
  world.num_shards =
      static_cast<unsigned>(read_int(config, "shards", 0, kNonNegative));
  world.params = params;
  if (!config.contains("mean_snr_db")) {
    // The single-cell default (16 dB) is the SNR of the *whole* cell; in
    // the path-loss world it is the budget at the 200 m reference, which
    // would starve every cell-edge user. 26 dB at the reference puts a
    // mid-cell user (~400 m) at the familiar 16 dB operating point.
    world.params.channel.mean_snr_db = 26.0;
  }
  world.handoff_hysteresis_db = read_double(
      config, "handoff_hysteresis_db", world.handoff_hysteresis_db,
      kNonNegative);
  const double kmh = read_double(config, "kmh", 50.0, kNonNegative);
  world.mobility.speed_mps = common::km_per_hour(kmh);
  if (!config.contains("kmh") && !config.contains("doppler_hz")) {
    // scenario_from only derives the Doppler from kmh when the knob is
    // given; keep the default-speed world consistent with an explicit
    // kmh=50 (clamped: a parked population still fades a little).
    world.params.channel.doppler_hz =
        std::max(1.0, channel::ChannelConfig::doppler_for_speed(
                          world.mobility.speed_mps, 2.0e9));
  }
  const std::string mobility = config.get_string_or("mobility", "waypoint");
  if (mobility != "waypoint" && mobility != "vector") {
    throw std::invalid_argument("mobility= must be waypoint or vector");
  }
  world.mobility.model = mobility == "vector"
                             ? mac::MobilityConfig::Model::kConstantVelocity
                             : mac::MobilityConfig::Model::kRandomWaypoint;

  const std::string layout = config.get_string_or("layout", "line");
  if (layout != "line" && layout != "hex") {
    throw std::invalid_argument("layout= must be line or hex");
  }
  const bool hex = layout == "hex";
  world.layout.kind = hex ? mac::SiteLayoutConfig::Kind::kHex
                          : mac::SiteLayoutConfig::Kind::kLine;
  world.layout.reuse_factor = read_int(config, "reuse", 1, kAtLeastOne);
  if (hex && !mac::SiteLayout::is_rhombic_number(world.layout.reuse_factor)) {
    throw std::invalid_argument(
        "reuse= must be a rhombic number (1, 3, 4, 7, 9, 12, ...) with "
        "layout=hex");
  }
  world.layout.wrap_around = config.get_bool_or("wrap", false);
  if (world.layout.wrap_around &&
      !mac::SiteLayout::supports_wrap(world.layout, world.num_cells)) {
    throw std::invalid_argument(
        "wrap=1 needs layout=hex, a full-ring cells= (1, 7, 19, 37, ...) "
        "and a wrap-consistent reuse= (1, or one channel per cell such as "
        "reuse=7 at cells=7)");
  }
  world.pilot_band_radius_m = read_double(config, "band", 0.0, kNonNegative);
  // Hex cells carry co-channel interference by default; the line world
  // keeps its historical interference-free behaviour unless asked.
  world.interference_activity =
      read_double(config, "interference", hex ? 0.4 : 0.0, kFraction);

  if (auto spec = config.get_string("outage")) {
    std::stringstream stream(*spec);
    std::string window;
    while (std::getline(stream, window, ',')) {
      const auto f = parse_colon_list("outage", window);
      if (f.size() != 3) {
        throw std::invalid_argument(
            "outage= expects cell:start:end windows, got '" + window + "'");
      }
      mac::CellOutageWindow w;
      // A cell index that is not a whole number in range becomes -1, which
      // valid() rejects (casting an out-of-range double would be undefined).
      const bool cell_ok = f[0] == std::trunc(f[0]) && f[0] >= 0.0 &&
                           f[0] < world.num_cells;
      w.cell = cell_ok ? static_cast<int>(f[0]) : -1;
      w.start = f[1];
      w.end = f[2];
      if (!w.valid(world.num_cells)) {
        throw std::invalid_argument("outage= window '" + window +
                                    "' is invalid for cells=" +
                                    std::to_string(world.num_cells));
      }
      world.outages.push_back(w);
    }
  }
  if (config.contains("flash") && config.contains("diurnal")) {
    throw std::invalid_argument("flash= and diurnal= are mutually exclusive");
  }
  if (auto spec = config.get_string("flash")) {
    const auto f = parse_colon_list("flash", *spec);
    if (f.size() != 6) {
      throw std::invalid_argument(
          "flash= expects x:y:radius:multiplier:start:end");
    }
    world.modulation.kind = traffic::TrafficModulationConfig::Kind::kFlashCrowd;
    world.modulation.epicenter_x_m = f[0];
    world.modulation.epicenter_y_m = f[1];
    world.modulation.radius_m = f[2];
    world.modulation.rate_multiplier = f[3];
    world.modulation.start = f[4];
    world.modulation.end = f[5];
  }
  if (auto spec = config.get_string("diurnal")) {
    const auto f = parse_colon_list("diurnal", *spec);
    if (f.size() != 2 && f.size() != 3) {
      throw std::invalid_argument(
          "diurnal= expects amplitude:period_s[:wavelength_m]");
    }
    world.modulation.kind = traffic::TrafficModulationConfig::Kind::kDiurnal;
    world.modulation.amplitude = f[0];
    world.modulation.period_s = f[1];
    if (f.size() == 3) world.modulation.wavelength_m = f[2];
  }
  // Per-field rejection naming the knob: "diurnal=: amplitude must be in
  // [0, 1) ..." instead of a generic out-of-range message.
  traffic::validate_or_throw(world.modulation,
                             config.contains("flash") ? "flash" : "diurnal");

  const double radius =
      read_double(config, "cell_radius_m", 500.0, kPositive);
  if (hex) {
    world.layout.site_spacing_m = 2.0 * radius;
    const auto [width, height] = mac::SiteLayout::hex_field_extent(
        world.num_cells, world.layout.site_spacing_m);
    world.mobility.field_width_m = width;
    world.mobility.field_height_m = height;
  } else {
    // A line layout derives its spacing from the field: width / cells.
    world.mobility.field_width_m =
        2.0 * radius * static_cast<double>(world.num_cells);
    world.mobility.field_height_m = 2.0 * radius;
  }
  return world;
}

}  // namespace

std::string Domain::describe() const {
  const auto num = [](double v) {
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
  };
  if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + num(lo);
  return std::string("in ") + (lo_open ? "(" : "[") + num(lo) + ", " +
         num(hi) + (hi_open ? ")" : "]");
}

double read_double(const common::KeyValueConfig& config,
                   const std::string& key, double fallback,
                   const Domain& domain) {
  const double v = config.get_double_or(key, fallback);
  require(key, v, config.get_string_or(key, ""), domain);
  return v;
}

int read_int(const common::KeyValueConfig& config, const std::string& key,
             int fallback, const Domain& domain) {
  const int v = config.get_int_or(key, fallback);
  require(key, v, config.get_string_or(key, ""), domain);
  return v;
}

int read_count(const common::KeyValueConfig& config, const std::string& key,
               int fallback, const Domain& domain) {
  const long long v = config.get_count_or(key, fallback);
  const std::string text = config.get_string_or(key, "");
  require(key, static_cast<double>(v), text, kPopulation);
  require(key, static_cast<double>(v), text, domain);
  return static_cast<int>(v);
}

std::vector<int> read_int_list(const common::KeyValueConfig& config,
                               const std::string& key,
                               const std::vector<int>& fallback,
                               const Domain& domain) {
  const auto value = config.get_string(key);
  if (!value) return fallback;
  return parse_list(
      key, *value,
      [](const std::string& token) {
        std::size_t pos = 0;
        const int v = std::stoi(token, &pos);
        if (pos != token.size()) throw std::invalid_argument("trailing");
        return v;
      },
      [&](int v, const std::string& token) {
        require(key, v, token, domain);
      });
}

std::vector<protocols::ProtocolId> read_protocol_list(
    const common::KeyValueConfig& config, const std::string& key,
    const std::vector<protocols::ProtocolId>& fallback) {
  const auto value = config.get_string(key);
  if (!value) return fallback;
  return parse_list(key, *value, protocols::parse_protocol,
                    [](protocols::ProtocolId, const std::string&) {});
}

std::string_view scenario_help() { return kHelp; }

Scenario parse_scenario(const common::KeyValueConfig& config) {
  config.reject_unknown(kScenarioKeys);
  Scenario scenario;
  RunSpec& spec = scenario.spec;
  spec.params = scenario_from(config);
  spec.warmup_s = read_double(config, "warmup", 4.0, kNonNegative);
  spec.measure_s = read_double(config, "measure", 12.0, kPositive);
  spec.replications = read_int(config, "replications", 1, kAtLeastOne);
  spec.charisma = charisma_options_from(config);
  scenario.protocols = protocols_from(config);
  const int cells = read_int(config, "cells", 1, kAtLeastOne);

  if (cells < 2) {
    for (const auto& knob : kWorldOnlyKeys) {
      if (config.contains(knob)) {
        throw std::invalid_argument(
            knob + "= is a world-level knob and needs cells >= 2");
      }
    }
  }
  if (config.contains("x") && !config.contains("sweep")) {
    throw std::invalid_argument(
        "x= is a sweep grid and needs sweep=voice or sweep=data");
  }

  if (cells >= 2) {
    if (config.contains("sweep")) {
      throw std::invalid_argument(
          "sweep= is not supported with cells >= 2 yet; run one operating "
          "point per invocation");
    }
    scenario.world = cellular_from(config, spec.params);
    scenario.verify = config.get_bool_or("verify", false);
    return scenario;
  }

  if (const auto axis = config.get_string("sweep")) {
    if (*axis != "voice" && *axis != "data") {
      throw std::invalid_argument("sweep= must be voice or data");
    }
    scenario.sweep = SweepConfig{
        spec,
        *axis == "data" ? SweepAxis::kDataUsers : SweepAxis::kVoiceUsers,
        read_int_list(config, "x", {20, 60, 100, 140}, kNonNegative),
        scenario.protocols};
  }
  return scenario;
}

}  // namespace charisma::experiment

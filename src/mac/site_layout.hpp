// Base-station site geometry for the multi-cell world: where the sites
// stand, which sites share a frequency channel, and how distances behave
// at the layout's edge.
//
//   * kLine — sites evenly spaced along the field's horizontal midline,
//     the historical CellularWorld placement: the spacing is
//     field_width / num_cells.
//   * kHex — the classic hexagonal ring layout: site 0 at the field
//     centre, ring k adding 6k sites at spacing `site_spacing_m`, filled
//     in spiral order. Full rings hold 1 / 7 / 19 / 37 ... sites.
//
// A frequency-reuse factor N partitions the sites into N channel groups;
// only co-channel sites interfere with each other. The hex partition is
// the standard rhombic-lattice colouring (N = i² + ij + j², so
// N ∈ {1, 3, 4, 7, 9, 12, 13, ...}): co-channel sites sit √N spacings
// apart, adjacent sites never share a channel (for N > 1). The line
// partition is round-robin.
//
// Full-ring hex clusters can optionally wrap around: distances are taken
// as the minimum over the cluster's seven toroidal images (the cluster
// tiles the plane under translations of norm √num_sites · spacing), which
// removes the edge cells' interference advantage in small layouts.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "mac/geometry.hpp"

namespace charisma::mac {

struct SiteLayoutConfig {
  enum class Kind { kLine, kHex };

  Kind kind = Kind::kLine;

  /// Distance between adjacent hex sites, metres (required > 0). Line
  /// layouts derive theirs, field_width / num_cells, and require 0.
  double site_spacing_m = 0.0;

  /// Frequency-reuse factor: sites are partitioned into this many channel
  /// groups and only co-channel sites interfere. 1 = every site on the
  /// same channel (worst-case interference). Hex layouts require a
  /// rhombic number (1, 3, 4, 7, 9, 12, ...).
  int reuse_factor = 1;

  /// Wrap distances around the cluster (hex full-ring layouts only:
  /// 1, 7, 19, ... sites). Removes layout-edge effects. The reuse
  /// pattern must be wrap-consistent: either the cluster translation
  /// maps co-channel cells onto co-channel images (always true for
  /// reuse 1), or no co-channel pair exists at all — every cell on its
  /// own channel, e.g. 7 cells at reuse 7 or 19 at reuse 19 — so only
  /// serving-link distances wrap. Inconsistent combinations are
  /// rejected at construction.
  bool wrap_around = false;

  bool valid() const { return site_spacing_m >= 0.0 && reuse_factor >= 1; }
};

class SiteLayout {
 public:
  SiteLayout() = default;

  /// Builds the site map for `num_cells` sites over the given field.
  /// Throws std::invalid_argument for inconsistent configurations (hex
  /// without a spacing, a line with one, non-rhombic hex reuse,
  /// wrap-around that supports_wrap rejects).
  SiteLayout(const SiteLayoutConfig& config, int num_cells,
             double field_width_m, double field_height_m);

  int num_sites() const { return static_cast<int>(sites_.size()); }
  Vec2 position(int site) const {
    return sites_.at(static_cast<std::size_t>(site));
  }
  const std::vector<Vec2>& positions() const { return sites_; }
  const SiteLayoutConfig& config() const { return config_; }

  /// The site's frequency channel, in [0, reuse_factor).
  int reuse_channel(int site) const {
    return channel_.at(static_cast<std::size_t>(site));
  }
  bool co_channel(int a, int b) const {
    return channel_.at(static_cast<std::size_t>(a)) ==
           channel_.at(static_cast<std::size_t>(b));
  }
  /// Every co-channel site other than `site` — the interferers of its
  /// cell. CellularWorld precomputes these lists once per world.
  std::vector<int> co_channel_interferers(int site) const;

  /// Cartesian translations under which distances are taken (always
  /// contains {0, 0}; seven entries for a wrap-around hex cluster).
  const std::vector<Vec2>& wrap_offsets() const { return wrap_offsets_; }
  bool wraps() const { return wrap_offsets_.size() > 1; }

  /// Squared distance from `p` to `site` under the wrap metric (minimum
  /// over the layout's images). The no-wrap fast path is the plain
  /// squared distance, bit-identical to the historical computation.
  double distance_sq(const Vec2& p, int site) const {
    const Vec2 s = sites_[static_cast<std::size_t>(site)];
    double best = distance_sq_m2(p, s);
    for (std::size_t i = 1; i < wrap_offsets_.size(); ++i) {
      const Vec2 image{s.x + wrap_offsets_[i].x, s.y + wrap_offsets_[i].y};
      const double d = distance_sq_m2(p, image);
      if (d < best) best = d;
    }
    return best;
  }

  /// Sites in a hex layout of `rings` full rings: 3k(k+1) + 1.
  static int hex_sites_for_rings(int rings);
  /// Whether `n` is a full-ring hex site count (1, 7, 19, 37, ...).
  static bool is_full_ring_count(int n);
  /// Whether `n` is representable as i² + ij + j² (a valid hex reuse
  /// factor): 1, 3, 4, 7, 9, 12, 13, ...
  static bool is_rhombic_number(int n);
  /// Whether `config`'s layout of `num_cells` sites can wrap around: a
  /// full-ring hex cluster with a rhombic reuse factor that is
  /// wrap-consistent (see SiteLayoutConfig::wrap_around). The constructor
  /// rejects wrap_around exactly when this is false.
  static bool supports_wrap(const SiteLayoutConfig& config, int num_cells);
  /// Field (width, height) that contains the hex grid with one spacing of
  /// margin on every side — the mobility field of experiment::
  /// parse_scenario's layout=hex worlds.
  static std::pair<double, double> hex_field_extent(int num_cells,
                                                    double site_spacing_m);

 private:
  SiteLayoutConfig config_{};
  std::vector<Vec2> sites_;
  std::vector<int> channel_;
  std::vector<Vec2> wrap_offsets_{Vec2{0.0, 0.0}};
};

/// Interference-to-noise ratio of one co-channel site carrying `load`, at
/// squared distance `d_sq` from the user: load · G · max(d², d_min²)^(−7/4).
/// This is the world's path-loss model db(d) = C − K/2 · ln d² in linear
/// form, G = 10^(C/10), for the exponent 3.5 alone (CellularWorld
/// static_asserts it). It costs two square roots and a division, where the
/// dB form costs a log and a pow, and it is the closer of the two to the
/// exact power law.
double co_channel_inr(double load, double path_gain, double d_sq,
                      double min_distance_sq_m2);

/// Per-(user, serving-cell) SINR penalty of the uplink interference plane:
/// 10·log10(1 + Σ_s co_channel_inr(load[s], G, |p − s|², d_min²)), summed
/// in the order of the serving site's co-channel `interferers` and
/// skipping the sites that carry no load. Exactly 0 when every interferer
/// load is 0, and monotone non-decreasing in each load — the properties
/// tests/mac/cellular_world_test.cpp pins. It is the reference
/// CellularWorld's SNR plane is pinned to: the plane adds the same terms
/// in the same order, site-outer over its band's packed member positions,
/// and CellularWorldInterference.WorldPlaneIsThePenaltyFunction requires
/// every member's penalty to equal this function's bit for bit.
double interference_penalty_db(const SiteLayout& layout,
                               std::span<const int> interferers,
                               std::span<const double> cell_load,
                               const Vec2& p, double path_gain,
                               double min_distance_sq_m2);

}  // namespace charisma::mac

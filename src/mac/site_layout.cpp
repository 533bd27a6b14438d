#include "mac/site_layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace charisma::mac {

namespace {

constexpr double kSqrt3Over2 = 0.8660254037844386;

struct Axial {
  int q = 0;
  int r = 0;
};

/// Axial -> cartesian on the unit-spacing hex lattice (adjacent sites are
/// exactly one spacing apart).
Vec2 axial_to_cart(const Axial& a, double spacing) {
  return {spacing * (static_cast<double>(a.q) + 0.5 * static_cast<double>(a.r)),
          spacing * kSqrt3Over2 * static_cast<double>(a.r)};
}

/// 60-degree rotation of an axial vector: (q, r) -> (-r, q + r).
Axial rotate60(const Axial& a) { return {-a.r, a.q + a.r}; }

/// The first `n` sites of the ring spiral: centre, then ring k = 1, 2, ...
/// walked edge by edge (6k sites per ring), a fixed deterministic order.
std::vector<Axial> hex_spiral(int n) {
  static constexpr Axial kDirs[6] = {{1, 0},  {1, -1}, {0, -1},
                                     {-1, 0}, {-1, 1}, {0, 1}};
  std::vector<Axial> sites;
  sites.reserve(static_cast<std::size_t>(n));
  sites.push_back({0, 0});
  for (int ring = 1; static_cast<int>(sites.size()) < n; ++ring) {
    Axial hex{-ring, ring};  // ring start: `ring` steps along kDirs[4]
    for (const Axial& dir : kDirs) {
      for (int step = 0; step < ring; ++step) {
        if (static_cast<int>(sites.size()) >= n) return sites;
        sites.push_back(hex);
        hex = {hex.q + dir.q, hex.r + dir.r};
      }
    }
  }
  return sites;
}

long long floor_div(long long a, long long b) {  // b > 0
  const long long q = a / b;
  return a % b < 0 ? q - 1 : q;
}

/// Finds (i, j) with i² + ij + j² == n (both >= 0); {-1, -1} when `n` is
/// not a rhombic number.
std::pair<int, int> rhombic_decomposition(int n) {
  for (int i = 0; i * i <= n; ++i) {
    for (int j = 0; i * i + i * j + j * j <= n; ++j) {
      if (i * i + i * j + j * j == n) return {i, j};
    }
  }
  return {-1, -1};
}

/// Channel ids for a hex reuse-N pattern: each site is reduced to the
/// canonical representative of its coset of the co-channel sublattice
/// (generated by u = (i, j) and its 60-degree rotation v = (-j, i + j),
/// index N = i² + ij + j²), and distinct representatives get distinct
/// channels. Exact integer arithmetic throughout.
std::vector<int> hex_reuse_channels(const std::vector<Axial>& sites, int n) {
  const auto [i, j] = rhombic_decomposition(n);
  std::vector<std::pair<Axial, int>> reps;
  std::vector<int> channels;
  channels.reserve(sites.size());
  for (const Axial& s : sites) {
    // (a, b) = M^-1 (q, r) with M = [u v]; det M = N.
    const long long a_num = static_cast<long long>(i + j) * s.q +
                            static_cast<long long>(j) * s.r;
    const long long b_num = -static_cast<long long>(j) * s.q +
                            static_cast<long long>(i) * s.r;
    const long long fa = floor_div(a_num, n);
    const long long fb = floor_div(b_num, n);
    const Axial rep{s.q - static_cast<int>(fa * i - fb * j),
                    s.r - static_cast<int>(fa * j + fb * (i + j))};
    int id = -1;
    for (const auto& [known, known_id] : reps) {
      if (known.q == rep.q && known.r == rep.r) {
        id = known_id;
        break;
      }
    }
    if (id < 0) {
      id = static_cast<int>(reps.size());
      reps.emplace_back(rep, id);
    }
    channels.push_back(id);
  }
  return channels;
}

/// Rings k such that the full-ring count 3k(k+1)+1 equals n, or -1.
int rings_for_count(int n) {
  for (int k = 0; SiteLayout::hex_sites_for_rings(k) <= n; ++k) {
    if (SiteLayout::hex_sites_for_rings(k) == n) return k;
  }
  return -1;
}

}  // namespace

int SiteLayout::hex_sites_for_rings(int rings) {
  return 3 * rings * (rings + 1) + 1;
}

bool SiteLayout::is_full_ring_count(int n) {
  return n >= 1 && rings_for_count(n) >= 0;
}

bool SiteLayout::is_rhombic_number(int n) {
  return n >= 1 && rhombic_decomposition(n).first >= 0;
}

bool SiteLayout::supports_wrap(const SiteLayoutConfig& config,
                               int num_cells) {
  const int rings = rings_for_count(num_cells);
  if (config.kind != SiteLayoutConfig::Kind::kHex || rings < 0 ||
      !is_rhombic_number(config.reuse_factor)) {
    return false;
  }
  // The full-ring cluster tiles the plane under the lattice generated by
  // t = (rings + 1, rings) in axial coordinates (norm² = 3k² + 3k + 1 =
  // num_cells; the constructor's wrap images). The wrap metric is only sound against the reuse partition
  // when t maps co-channel sites onto co-channel images, i.e. t lies in
  // the reuse sublattice (its coset is the origin's; trivially so at
  // reuse 1). Otherwise a wrapped image would put an *adjacent-channel*
  // cell at a co-channel distance and the interference plane would be
  // physically wrong — unless the partition has no co-channel pair at all
  // (every site on its own channel, e.g. a full-ring cluster at reuse ==
  // num_cells), where wrapping only affects serving-link distances and
  // stays valid.
  const auto origin_vs_t =
      hex_reuse_channels({Axial{0, 0}, Axial{rings + 1, rings}},
                         config.reuse_factor);
  if (origin_vs_t[0] == origin_vs_t[1]) return true;
  auto channels = hex_reuse_channels(hex_spiral(num_cells),
                                     config.reuse_factor);
  std::sort(channels.begin(), channels.end());
  return std::adjacent_find(channels.begin(), channels.end()) ==
         channels.end();
}

std::pair<double, double> SiteLayout::hex_field_extent(int num_cells,
                                                       double site_spacing_m) {
  if (num_cells < 1 || site_spacing_m <= 0.0) {
    throw std::invalid_argument("hex_field_extent: invalid arguments");
  }
  double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;
  for (const Axial& a : hex_spiral(num_cells)) {
    const Vec2 p = axial_to_cart(a, site_spacing_m);
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  return {max_x - min_x + 2.0 * site_spacing_m,
          max_y - min_y + 2.0 * site_spacing_m};
}

SiteLayout::SiteLayout(const SiteLayoutConfig& config, int num_cells,
                       double field_width_m, double field_height_m)
    : config_(config) {
  if (!config.valid() || num_cells < 1 || field_width_m <= 0.0 ||
      field_height_m <= 0.0) {
    throw std::invalid_argument("SiteLayout: invalid configuration");
  }
  if (config.wrap_around && !supports_wrap(config, num_cells)) {
    throw std::invalid_argument(
        "SiteLayout: wrap-around requires a full-ring hex layout (1, 7, "
        "19, 37, ... sites) with reuse 1 or another wrap-consistent reuse "
        "factor");
  }
  sites_.reserve(static_cast<std::size_t>(num_cells));
  channel_.reserve(static_cast<std::size_t>(num_cells));

  if (config.kind == SiteLayoutConfig::Kind::kLine) {
    if (config.site_spacing_m != 0.0) {
      throw std::invalid_argument(
          "SiteLayout: line layouts derive their spacing from the field; "
          "site_spacing_m must be 0");
    }
    // Evenly spaced along the field midline, the step derived from the
    // field width: the historical CellularWorld placement, bit for bit.
    const double step = field_width_m / static_cast<double>(num_cells);
    for (int c = 0; c < num_cells; ++c) {
      sites_.push_back({(static_cast<double>(c) + 0.5) * step,
                        field_height_m * 0.5});
    }
    for (int c = 0; c < num_cells; ++c) {
      channel_.push_back(c % config.reuse_factor);
    }
    return;
  }

  // ---- Hexagonal rings ----
  if (config.site_spacing_m <= 0.0) {
    throw std::invalid_argument(
        "SiteLayout: hex layouts require site_spacing_m > 0");
  }
  if (!is_rhombic_number(config.reuse_factor)) {
    throw std::invalid_argument(
        "SiteLayout: hex reuse factor must be a rhombic number "
        "(1, 3, 4, 7, 9, 12, ...)");
  }
  const auto axial = hex_spiral(num_cells);
  const Vec2 centre{0.5 * field_width_m, 0.5 * field_height_m};
  for (const Axial& a : axial) {
    const Vec2 p = axial_to_cart(a, config.site_spacing_m);
    sites_.push_back({centre.x + p.x, centre.y + p.y});
  }
  channel_ = hex_reuse_channels(axial, config.reuse_factor);

  if (config.wrap_around) {
    // Seven images: the identity plus the cluster translation t's six
    // 60-degree rotations (supports_wrap checked t against the reuse
    // partition).
    const int rings = rings_for_count(num_cells);
    const Axial t{rings + 1, rings};
    Axial image = t;
    for (int rot = 0; rot < 6; ++rot) {
      wrap_offsets_.push_back(axial_to_cart(image, config.site_spacing_m));
      image = rotate60(image);
    }
  }
}

std::vector<int> SiteLayout::co_channel_interferers(int site) const {
  std::vector<int> interferers;
  for (int s = 0; s < num_sites(); ++s) {
    if (s != site && co_channel(s, site)) interferers.push_back(s);
  }
  return interferers;
}

double co_channel_inr(double load, double path_gain, double d_sq,
                      double min_distance_sq_m2) {
  // d^−3.5 = 1 / (d² · d · √d), with d = √d².
  const double clamped = std::max(d_sq, min_distance_sq_m2);
  const double d = std::sqrt(clamped);
  return load * path_gain / (clamped * d * std::sqrt(d));
}

double interference_penalty_db(const SiteLayout& layout,
                               std::span<const int> interferers,
                               std::span<const double> cell_load,
                               const Vec2& p, double path_gain,
                               double min_distance_sq_m2) {
  double inr = 0.0;
  for (const int s : interferers) {
    const double load = cell_load[static_cast<std::size_t>(s)];
    if (load <= 0.0) continue;
    inr += co_channel_inr(load, path_gain, layout.distance_sq(p, s),
                          min_distance_sq_m2);
  }
  // 10·log10(1 + I/N): exactly 0.0 when no interferer carries load, so an
  // idle neighbourhood leaves SINR == SNR bit for bit.
  return common::to_db(1.0 + inr);
}

}  // namespace charisma::mac

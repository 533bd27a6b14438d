// Property test: SiteIndex band queries against a brute-force
// O(sites-per-query) reference, across line/hex layouts, wrap on/off, and
// band radii from degenerate (every query falls back to the nearest site)
// to all-covering — including positions exactly on bucket edges and on the
// range circle, where a binning bug would first show.
#include "mac/presence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "mac/site_layout.hpp"

namespace charisma::mac {
namespace {

// The contract cells_near implements: every site within the radius under
// the wrap metric, ascending; radius <= 0 is the all-cells band; an empty
// result falls back to the nearest site (lowest id on exact ties).
std::vector<int> brute_force(const SiteLayout& layout, const Vec2& p,
                             double radius_m) {
  std::vector<int> out;
  const int sites = layout.num_sites();
  if (radius_m <= 0.0) {
    for (int s = 0; s < sites; ++s) out.push_back(s);
    return out;
  }
  const double r_sq = radius_m * radius_m;
  for (int s = 0; s < sites; ++s) {
    if (layout.distance_sq(p, s) <= r_sq) out.push_back(s);
  }
  if (out.empty()) {
    int best = 0;
    double best_sq = layout.distance_sq(p, 0);
    for (int s = 1; s < sites; ++s) {
      const double d = layout.distance_sq(p, s);
      if (d < best_sq) {
        best_sq = d;
        best = s;
      }
    }
    out.push_back(best);
  }
  return out;
}

// Deterministic probe cloud: every site, points exactly on each site's
// range circle, exact bucket-grid corners (multiples of the radius from
// the layout's min corner — the index's bucket origin), field corners,
// out-of-field probes, and a seeded uniform scatter.
std::vector<Vec2> probe_points(const SiteLayout& layout, double radius_m,
                               double width_m, double height_m) {
  std::vector<Vec2> pts;
  double min_x = layout.position(0).x;
  double min_y = layout.position(0).y;
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    min_x = std::min(min_x, site.x);
    min_y = std::min(min_y, site.y);
    pts.push_back(site);
    if (radius_m > 0.0) {
      pts.push_back({site.x + radius_m, site.y});  // exactly on the circle
      pts.push_back({site.x, site.y - radius_m});
      pts.push_back({site.x - 0.5 * radius_m, site.y + 0.5 * radius_m});
    }
  }
  if (radius_m > 0.0) {
    for (int i = 0; i <= 4; ++i) {
      for (int j = 0; j <= 2; ++j) {
        // Exact bucket-edge positions: the index bins at radius_m-wide
        // buckets anchored at the min site corner.
        pts.push_back({min_x + i * radius_m, min_y + j * radius_m});
      }
    }
  }
  pts.push_back({0.0, 0.0});
  pts.push_back({width_m, height_m});
  pts.push_back({-0.25 * width_m, 0.5 * height_m});   // outside the bbox
  pts.push_back({1.25 * width_m, 1.5 * height_m});
  common::RngStream rng(0xBADBEEF);
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-0.1 * width_m, 1.1 * width_m),
                   rng.uniform(-0.1 * height_m, 1.1 * height_m)});
  }
  return pts;
}

void expect_matches_brute_force(const SiteLayout& layout, double radius_m,
                                double width_m, double height_m) {
  SiteIndex index(layout, radius_m);
  std::vector<int> got;
  for (const Vec2& p : probe_points(layout, radius_m, width_m, height_m)) {
    const auto want = brute_force(layout, p, radius_m);
    got.clear();
    index.cells_near(p, got);
    EXPECT_EQ(got, want) << "radius " << radius_m << " at (" << p.x << ", "
                         << p.y << ")";
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  }
}

TEST(SiteIndexProperty, LineLayoutMatchesBruteForce) {
  const double width = 4000.0, height = 1000.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/8, width, height);
  // Degenerate (pure nearest-site fallback), sub-spacing, roughly one
  // spacing (500 m here), a few spacings, and all-covering.
  for (double r : {1e-3, 220.0, 500.0, 1400.0, 1e6}) {
    expect_matches_brute_force(layout, r, width, height);
  }
  expect_matches_brute_force(layout, 0.0, width, height);  // all-cells mode
}

TEST(SiteIndexProperty, HexLayoutMatchesBruteForce) {
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = 1000.0;
  const auto [width, height] = SiteLayout::hex_field_extent(19, 1000.0);
  SiteLayout layout(cfg, /*num_cells=*/19, width, height);
  for (double r : {1e-3, 650.0, 1000.0, 2400.0, 1e6}) {
    expect_matches_brute_force(layout, r, width, height);
  }
  expect_matches_brute_force(layout, 0.0, width, height);
}

TEST(SiteIndexProperty, WrappedHexMatchesBruteForce) {
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = 1000.0;
  cfg.wrap_around = true;
  const auto [width, height] = SiteLayout::hex_field_extent(19, 1000.0);
  SiteLayout layout(cfg, /*num_cells=*/19, width, height);
  ASSERT_TRUE(layout.wraps());
  for (double r : {1e-3, 650.0, 1200.0, 3000.0}) {
    expect_matches_brute_force(layout, r, width, height);
  }
}

TEST(SiteIndexProperty, NearestSiteFallbackPrefersLowestIdOnTies) {
  // A probe equidistant from sites 0 and 1 with a degenerate radius must
  // fall back to site 0 (strict-less argmin keeps the first).
  const double width = 2000.0, height = 1000.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/2, width, height);
  const Vec2 a = layout.position(0);
  const Vec2 b = layout.position(1);
  const Vec2 mid{0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
  SiteIndex index(layout, 1e-3);
  std::vector<int> got;
  index.cells_near(mid, got);
  EXPECT_EQ(got, std::vector<int>{0});
}

TEST(SiteIndexProperty, AppendsAfterTheCallersEntries) {
  // The sharded band proposals query into one vector per shard: a query
  // appends its ascending, duplicate-free run and leaves the entries
  // already there untouched. At 3 km on a wrapped 19-cell cluster a probe
  // can reach one site through two of its images, which the run dedupes.
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = 1000.0;
  cfg.wrap_around = true;
  const auto [width, height] = SiteLayout::hex_field_extent(19, 1000.0);
  SiteLayout layout(cfg, /*num_cells=*/19, width, height);
  SiteIndex index(layout, 3000.0);
  const std::vector<int> prefix{42, 7, -1};
  for (const Vec2& p : probe_points(layout, 3000.0, width, height)) {
    std::vector<int> got = prefix;
    index.cells_near(p, got);
    std::vector<int> want = prefix;
    const auto run = brute_force(layout, p, 3000.0);
    want.insert(want.end(), run.begin(), run.end());
    EXPECT_EQ(got, want) << "at (" << p.x << ", " << p.y << ")";
  }
}

TEST(SiteIndexProperty, RebuildReusesStorageAndStaysCorrect) {
  // Shrinking then re-growing the geometry through rebuild() must leave
  // queries exactly as correct as a freshly-built index at each step.
  const double width = 4000.0, height = 1000.0;
  SiteLayout big(SiteLayoutConfig{}, /*num_cells=*/8, width, height);
  SiteLayout small(SiteLayoutConfig{}, /*num_cells=*/3, width, height);
  SiteIndex index(big, 600.0);
  std::vector<int> got;
  index.rebuild(small, 900.0);
  for (const Vec2& p : probe_points(small, 900.0, width, height)) {
    got.clear();
    index.cells_near(p, got);
    EXPECT_EQ(got, brute_force(small, p, 900.0));
  }
  index.rebuild(big, 600.0);
  for (const Vec2& p : probe_points(big, 600.0, width, height)) {
    got.clear();
    index.cells_near(p, got);
    EXPECT_EQ(got, brute_force(big, p, 600.0));
  }
  // Radius flips across the all-cells sentinel both ways.
  index.rebuild(big, 0.0);
  got.clear();
  index.cells_near({0.5 * width, 0.5 * height}, got);
  EXPECT_EQ(static_cast<int>(got.size()), big.num_sites());
  index.rebuild(big, 600.0);
  got.clear();
  index.cells_near(big.position(2), got);
  EXPECT_EQ(got, brute_force(big, big.position(2), 600.0));
}

}  // namespace
}  // namespace charisma::mac

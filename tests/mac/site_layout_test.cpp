// Site geometry invariants: hex ring structure, reuse-pattern co-channel
// partitioning, wrap-around images, and — critically — bit-identical
// backward compatibility of the default line layout with the historical
// CellularWorld::place_sites() positions.
#include "mac/site_layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

SiteLayoutConfig hex_config(double spacing = 500.0, int reuse = 1,
                            bool wrap = false) {
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = spacing;
  cfg.reuse_factor = reuse;
  cfg.wrap_around = wrap;
  return cfg;
}

/// Distance from every site to its nearest other site.
double nearest_neighbor_m(const SiteLayout& layout, int site) {
  double best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < layout.num_sites(); ++s) {
    if (s == site) continue;
    best = std::min(best,
                    distance_m(layout.position(site), layout.position(s)));
  }
  return best;
}

TEST(SiteLayout, HexRingCounts) {
  EXPECT_EQ(SiteLayout::hex_sites_for_rings(0), 1);
  EXPECT_EQ(SiteLayout::hex_sites_for_rings(1), 7);
  EXPECT_EQ(SiteLayout::hex_sites_for_rings(2), 19);
  EXPECT_EQ(SiteLayout::hex_sites_for_rings(3), 37);
  for (int n : {1, 7, 19, 37}) {
    EXPECT_TRUE(SiteLayout::is_full_ring_count(n)) << n;
  }
  for (int n : {2, 3, 6, 8, 18, 20}) {
    EXPECT_FALSE(SiteLayout::is_full_ring_count(n)) << n;
  }
  // A full-ring request generates exactly that many sites; a partial
  // count takes a spiral prefix.
  for (int n : {1, 7, 19, 5, 12}) {
    SiteLayout layout(hex_config(), n, 10000.0, 10000.0);
    EXPECT_EQ(layout.num_sites(), n);
  }
}

TEST(SiteLayout, HexNearestNeighborEqualsSpacing) {
  const double spacing = 500.0;
  SiteLayout layout(hex_config(spacing), 19, 10000.0, 10000.0);
  for (int s = 0; s < layout.num_sites(); ++s) {
    EXPECT_NEAR(nearest_neighbor_m(layout, s), spacing, 1e-9) << "site " << s;
  }
  // And no two sites coincide or crowd closer than the spacing.
  for (int a = 0; a < layout.num_sites(); ++a) {
    for (int b = a + 1; b < layout.num_sites(); ++b) {
      EXPECT_GE(distance_m(layout.position(a), layout.position(b)),
                spacing - 1e-9);
    }
  }
}

TEST(SiteLayout, HexGridIsCentredOnTheField) {
  SiteLayout layout(hex_config(400.0), 7, 3000.0, 2000.0);
  EXPECT_DOUBLE_EQ(layout.position(0).x, 1500.0);
  EXPECT_DOUBLE_EQ(layout.position(0).y, 1000.0);
}

TEST(SiteLayout, HexReusePartition) {
  const double spacing = 500.0;
  for (int reuse : {3, 4, 7}) {
    SCOPED_TRACE("reuse " + std::to_string(reuse));
    SiteLayout layout(hex_config(spacing, reuse), 19, 10000.0, 10000.0);
    std::set<int> channels;
    for (int s = 0; s < layout.num_sites(); ++s) {
      channels.insert(layout.reuse_channel(s));
      EXPECT_GE(layout.reuse_channel(s), 0);
      EXPECT_LT(layout.reuse_channel(s), reuse);
    }
    // 19 sites exercise every channel of these small patterns.
    EXPECT_EQ(static_cast<int>(channels.size()), reuse);
    // Adjacent sites never share a channel, and co-channel sites keep the
    // canonical sqrt(reuse) * spacing separation.
    const double cochannel_min = std::sqrt(static_cast<double>(reuse)) *
                                 spacing;
    for (int a = 0; a < layout.num_sites(); ++a) {
      for (int b = a + 1; b < layout.num_sites(); ++b) {
        const double d = distance_m(layout.position(a), layout.position(b));
        if (layout.co_channel(a, b)) {
          EXPECT_GE(d, cochannel_min - 1e-6) << "sites " << a << "," << b;
        }
        if (d < spacing + 1e-9) {
          EXPECT_FALSE(layout.co_channel(a, b))
              << "adjacent sites " << a << "," << b << " share a channel";
        }
      }
    }
  }
}

TEST(SiteLayout, ReuseOneMakesEverySiteAnInterferer) {
  SiteLayout layout(hex_config(500.0, 1), 7, 10000.0, 10000.0);
  for (int s = 0; s < 7; ++s) {
    EXPECT_EQ(layout.co_channel_interferers(s).size(), 6u);
  }
  // One channel per cell in a 7-site reuse-7 cluster: nobody interferes.
  SiteLayout isolated(hex_config(500.0, 7), 7, 10000.0, 10000.0);
  for (int s = 0; s < 7; ++s) {
    EXPECT_TRUE(isolated.co_channel_interferers(s).empty());
  }
}

TEST(SiteLayout, LineBackwardCompatibility) {
  // The default line layout (spacing 0) must reproduce the historical
  // placement bit for bit: sites at ((c + 0.5) * width / n, height / 2).
  for (int cells : {2, 3}) {
    const double width = 500.0 * cells;
    const double height = 300.0;
    SiteLayout layout(SiteLayoutConfig{}, cells, width, height);
    ASSERT_EQ(layout.num_sites(), cells);
    const double step = width / static_cast<double>(cells);
    for (int c = 0; c < cells; ++c) {
      EXPECT_EQ(layout.position(c).x, (static_cast<double>(c) + 0.5) * step);
      EXPECT_EQ(layout.position(c).y, height * 0.5);
      EXPECT_EQ(layout.reuse_channel(c), 0);
    }
    EXPECT_FALSE(layout.wraps());
  }
  // And CellularWorld, built with an all-default layout config, exposes
  // exactly those positions (the PR 3 scenarios are untouched).
  CellularConfig cfg;
  cfg.num_cells = 3;
  cfg.params.num_voice_users = 4;
  cfg.params.seed = 5;
  cfg.mobility.field_width_m = 1500.0;
  cfg.mobility.field_height_m = 300.0;
  CellularWorld world(cfg, [](const ScenarioParams& p) {
    return protocols::make_protocol(protocols::ProtocolId::kDtdmaFr, p);
  });
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(world.site_position(c).x,
              (static_cast<double>(c) + 0.5) * 500.0);
    EXPECT_EQ(world.site_position(c).y, 150.0);
  }
}

TEST(SiteLayout, LineReuseIsRoundRobin) {
  SiteLayoutConfig cfg;
  cfg.reuse_factor = 3;
  SiteLayout layout(cfg, 7, 7000.0, 1000.0);
  for (int c = 0; c < 7; ++c) {
    EXPECT_EQ(layout.reuse_channel(c), c % 3);
  }
  EXPECT_EQ(layout.co_channel_interferers(0), (std::vector<int>{3, 6}));
}

TEST(SiteLayout, WrapAroundImages) {
  SiteLayout flat(hex_config(500.0, 1, false), 7, 10000.0, 10000.0);
  SiteLayout wrapped(hex_config(500.0, 1, true), 7, 10000.0, 10000.0);
  EXPECT_EQ(flat.wrap_offsets().size(), 1u);
  ASSERT_EQ(wrapped.wrap_offsets().size(), 7u);
  EXPECT_TRUE(wrapped.wraps());
  // Every translation image sits sqrt(num_sites) spacings away — the
  // cluster tiling lattice.
  for (std::size_t i = 1; i < wrapped.wrap_offsets().size(); ++i) {
    const Vec2 t = wrapped.wrap_offsets()[i];
    EXPECT_NEAR(std::hypot(t.x, t.y), std::sqrt(7.0) * 500.0, 1e-6);
  }
  // The wrap metric never exceeds the flat one, and shrinks the distance
  // from a point beyond one edge of the cluster to a site on the
  // opposite edge.
  const Vec2 far{wrapped.position(0).x + 3.0 * 500.0,
                 wrapped.position(0).y};
  for (int s = 0; s < 7; ++s) {
    EXPECT_LE(wrapped.distance_sq(far, s), flat.distance_sq(far, s) + 1e-9);
  }
  bool some_shorter = false;
  for (int s = 0; s < 7; ++s) {
    if (wrapped.distance_sq(far, s) < flat.distance_sq(far, s) - 1e-9) {
      some_shorter = true;
    }
  }
  EXPECT_TRUE(some_shorter);
}

TEST(SiteLayout, RhombicNumbers) {
  for (int n : {1, 3, 4, 7, 9, 12, 13, 16, 19, 21}) {
    EXPECT_TRUE(SiteLayout::is_rhombic_number(n)) << n;
  }
  for (int n : {2, 5, 6, 8, 10, 11, 14, 15}) {
    EXPECT_FALSE(SiteLayout::is_rhombic_number(n)) << n;
  }
}

TEST(SiteLayout, HexFieldExtentCoversTheGrid) {
  const double spacing = 500.0;
  const auto [width, height] = SiteLayout::hex_field_extent(19, spacing);
  SiteLayout layout(hex_config(spacing), 19, width, height);
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 p = layout.position(s);
    EXPECT_GE(p.x, spacing - 1e-9);
    EXPECT_LE(p.x, width - spacing + 1e-9);
    EXPECT_GE(p.y, spacing - 1e-9);
    EXPECT_LE(p.y, height - spacing + 1e-9);
  }
}

TEST(SiteLayout, Validation) {
  // Hex without a spacing.
  EXPECT_THROW(SiteLayout(hex_config(0.0), 7, 1000.0, 1000.0),
               std::invalid_argument);
  // Non-rhombic hex reuse factor.
  EXPECT_THROW(SiteLayout(hex_config(500.0, 5), 7, 1000.0, 1000.0),
               std::invalid_argument);
  // Wrap-around outside a full-ring cluster, or on a line.
  EXPECT_THROW(SiteLayout(hex_config(500.0, 1, true), 5, 1000.0, 1000.0),
               std::invalid_argument);
  // Wrap-inconsistent reuse patterns: the cluster translation would fold
  // co-channel cells onto non-co-channel distances.
  EXPECT_THROW(SiteLayout(hex_config(500.0, 3, true), 7, 10000.0, 10000.0),
               std::invalid_argument);
  EXPECT_THROW(SiteLayout(hex_config(500.0, 7, true), 19, 10000.0, 10000.0),
               std::invalid_argument);
  // ... but one-channel-per-cell patterns (no co-channel pair) and
  // factors whose sublattice contains the cluster lattice wrap fine.
  EXPECT_NO_THROW(
      SiteLayout(hex_config(500.0, 7, true), 7, 10000.0, 10000.0));
  EXPECT_NO_THROW(
      SiteLayout(hex_config(500.0, 19, true), 19, 10000.0, 10000.0));
  SiteLayoutConfig line;
  line.wrap_around = true;
  EXPECT_THROW(SiteLayout(line, 3, 1000.0, 1000.0), std::invalid_argument);
  // A line derives its spacing from the field, so it takes none.
  SiteLayoutConfig spaced_line;
  spaced_line.site_spacing_m = 400.0;
  EXPECT_THROW(SiteLayout(spaced_line, 3, 3000.0, 1000.0),
               std::invalid_argument);
  // Degenerate inputs.
  EXPECT_THROW(SiteLayout(SiteLayoutConfig{}, 0, 1000.0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(SiteLayout(SiteLayoutConfig{}, 2, 0.0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(SiteLayout::hex_field_extent(0, 500.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace charisma::mac

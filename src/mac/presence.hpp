// Sparse presence: the geometric side of band-local state. A SiteIndex
// answers "which cells' pilot bands cover this position?" — the set of
// sites within `radius_m` of the point under the layout's wrap metric —
// without scanning every site per query. Sites (including their wrap
// images) are bucketed once on a grid of cell size `radius_m`, so a query
// inspects at most the 3×3 bucket neighbourhood of the point.
//
// radius_m <= 0 is the all-cells band: every site covers every position —
// the dense world's semantics, and the configuration under which the
// sparse world reproduces it bit for bit.
//
// Queries return sites in ascending index order (the iteration order every
// world-plane loop relies on) and never return an empty set: a position
// outside every band falls back to its nearest site, so a user always has
// at least one candidate cell to attach to.
#pragma once

#include <vector>

#include "mac/geometry.hpp"
#include "mac/site_layout.hpp"

namespace charisma::mac {

class SiteIndex {
 public:
  SiteIndex() = default;

  /// Builds the bucket grid over `layout`'s sites and wrap images. The
  /// layout must outlive the index.
  SiteIndex(const SiteLayout& layout, double radius_m);

  /// (Re)builds the grid in place, reusing the bucket vectors' storage:
  /// after the first build at a given geometry, further rebuilds perform
  /// no heap allocation (buckets are clear()ed, never reassigned), so a
  /// caller refreshing the index in a steady-state loop allocates
  /// nothing. The layout must outlive the index.
  void rebuild(const SiteLayout& layout, double radius_m);

  /// All sites covering the band: every site whose (wrap-metric) distance
  /// to `p` is at most the radius, appended to `out` in ascending site
  /// order; the nearest site alone when none is in range; every site when
  /// the radius is <= 0. `out` is not cleared. The index is only read, so
  /// queries into distinct `out` vectors may run concurrently.
  void cells_near(const Vec2& p, std::vector<int>& out) const;

 private:
  struct Entry {
    int site;
    Vec2 pos;  // site position or one of its wrap images
  };

  std::size_t bucket_of(double x, double y) const;

  const SiteLayout* layout_ = nullptr;
  double radius_m_ = 0.0;
  double radius_sq_m2_ = 0.0;
  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double inv_bucket_ = 0.0;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::vector<Entry>> buckets_;
};

}  // namespace charisma::mac

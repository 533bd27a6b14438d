#include "mac/presence.hpp"

#include <algorithm>
#include <cmath>

namespace charisma::mac {

SiteIndex::SiteIndex(const SiteLayout& layout, double radius_m) {
  rebuild(layout, radius_m);
}

void SiteIndex::rebuild(const SiteLayout& layout, double radius_m) {
  layout_ = &layout;
  radius_m_ = radius_m;
  // Clear in place: the inner vectors keep their capacity, so a rebuild at
  // unchanged (or smaller) geometry allocates nothing. Stale buckets past
  // the new grid extent are cleared too — bucket_of never addresses them,
  // but leaving entries there would pin dead Entry storage forever.
  for (auto& bucket : buckets_) bucket.clear();
  if (radius_m_ <= 0.0) return;  // all-cells mode: no grid needed
  radius_sq_m2_ = radius_m_ * radius_m_;

  // Bounding box over every site image; bucket edge = radius, so any
  // point's in-range images live in the 3×3 neighbourhood of its bucket.
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  bool first = true;
  const auto& offsets = layout.wrap_offsets();
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    for (const Vec2& off : offsets) {
      const double x = site.x + off.x;
      const double y = site.y + off.y;
      if (first) {
        min_x = max_x = x;
        min_y = max_y = y;
        first = false;
      } else {
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
      }
    }
  }
  origin_x_ = min_x;
  origin_y_ = min_y;
  // Bucket edge = max(radius, extent/1024 per axis). Any edge >= the
  // radius keeps the 3x3-neighbourhood query exact (an in-range image is
  // within one bucket of the query's); the floor stops a degenerate
  // radius from exploding the grid — without it a 1 mm band on a km-scale
  // field would ask for ~1e12 buckets.
  constexpr double kMaxBucketsPerAxis = 1024.0;
  const double edge =
      std::max({radius_m_, (max_x - min_x) / kMaxBucketsPerAxis,
                (max_y - min_y) / kMaxBucketsPerAxis});
  inv_bucket_ = 1.0 / edge;
  nx_ = std::max(1, static_cast<int>((max_x - min_x) * inv_bucket_) + 1);
  ny_ = std::max(1, static_cast<int>((max_y - min_y) * inv_bucket_) + 1);
  const std::size_t grid =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  // Grow-only: resize keeps the existing inner vectors (and their
  // capacity) when the grid shrinks or stays put.
  if (buckets_.size() < grid) buckets_.resize(grid);
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    for (const Vec2& off : offsets) {
      const Vec2 img{site.x + off.x, site.y + off.y};
      buckets_[bucket_of(img.x, img.y)].push_back(Entry{s, img});
    }
  }
}

std::size_t SiteIndex::bucket_of(double x, double y) const {
  int bx = static_cast<int>(std::floor((x - origin_x_) * inv_bucket_));
  int by = static_cast<int>(std::floor((y - origin_y_) * inv_bucket_));
  bx = std::clamp(bx, 0, nx_ - 1);
  by = std::clamp(by, 0, ny_ - 1);
  return static_cast<std::size_t>(by) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(bx);
}

void SiteIndex::cells_near(const Vec2& p, std::vector<int>& out) const {
  const int sites = layout_->num_sites();
  if (radius_m_ <= 0.0) {
    for (int s = 0; s < sites; ++s) out.push_back(s);
    return;
  }
  // Clamping the centre bucket keeps out-of-box queries correct: an image
  // within the radius of an outside point is at most one bucket past the
  // nearest edge bucket, which the 3×3 neighbourhood still covers.
  const int cx = static_cast<int>(
      std::clamp(std::floor((p.x - origin_x_) * inv_bucket_),
                 0.0, static_cast<double>(nx_ - 1)));
  const int cy = static_cast<int>(
      std::clamp(std::floor((p.y - origin_y_) * inv_bucket_),
                 0.0, static_cast<double>(ny_ - 1)));
  const std::size_t tail = out.size();
  for (int by = std::max(0, cy - 1); by <= std::min(ny_ - 1, cy + 1); ++by) {
    for (int bx = std::max(0, cx - 1); bx <= std::min(nx_ - 1, cx + 1); ++bx) {
      const auto& bucket =
          buckets_[static_cast<std::size_t>(by) *
                       static_cast<std::size_t>(nx_) +
                   static_cast<std::size_t>(bx)];
      for (const Entry& e : bucket) {
        const double dx = p.x - e.pos.x;
        const double dy = p.y - e.pos.y;
        if (dx * dx + dy * dy <= radius_sq_m2_) out.push_back(e.site);
      }
    }
  }
  if (out.size() == tail) {
    // No band covers the position: the user still needs a serving
    // candidate, so fall back to the nearest site under the wrap metric.
    int best = 0;
    double best_sq = layout_->distance_sq(p, 0);
    for (int s = 1; s < sites; ++s) {
      const double d = layout_->distance_sq(p, s);
      if (d < best_sq) {
        best_sq = d;
        best = s;
      }
    }
    out.push_back(best);
    return;
  }
  // The hits arrive in bucket order, and a wrapped site can hit through
  // more than one of its images: sort and dedupe the appended run.
  const auto first = out.begin() + static_cast<std::ptrdiff_t>(tail);
  std::sort(first, out.end());
  out.erase(std::unique(first, out.end()), out.end());
}

}  // namespace charisma::mac

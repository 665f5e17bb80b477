#include "broadcast/air_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "kernels/kernels.h"

namespace lbsq::broadcast {

AirIndex::AirIndex(const std::vector<DataBucket>& buckets,
                   const hilbert::HilbertGrid& grid, int entries_per_bucket)
    : grid_(&grid), entries_per_bucket_(entries_per_bucket) {
  LBSQ_CHECK(entries_per_bucket_ >= 1);
  for (const DataBucket& bucket : buckets) {
    bucket_ranges_.push_back(
        hilbert::IndexRange{bucket.hilbert_lo, bucket.hilbert_hi});
    for (const spatial::Poi& poi : bucket.pois) {
      entries_.push_back(Entry{grid.IndexOf(poi.pos), bucket.id});
    }
  }
  // Buckets are built in Hilbert order, so entries are already sorted; the
  // check documents (and enforces) the contract.
  for (size_t i = 1; i < entries_.size(); ++i) {
    LBSQ_CHECK(entries_[i - 1].hilbert <= entries_[i].hilbert);
  }
  for (size_t i = 1; i < bucket_ranges_.size(); ++i) {
    LBSQ_CHECK(bucket_ranges_[i - 1].lo <= bucket_ranges_[i].lo);
    LBSQ_CHECK(bucket_ranges_[i - 1].hi <= bucket_ranges_[i].hi);
  }
  center_xs_.reserve(entries_.size());
  center_ys_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    const geom::Point center = grid.CellRect(e.hilbert).center();
    center_xs_.push_back(center.x);
    center_ys_.push_back(center.y);
  }
  if (!entries_.empty()) {
    const geom::Rect cell = grid.CellRect(entries_.front().hilbert);
    half_cell_diagonal_ = 0.5 * std::sqrt(cell.width() * cell.width() +
                                          cell.height() * cell.height());
  }
}

AirIndex::AirIndex(std::vector<Entry> entries,
                   std::vector<hilbert::IndexRange> bucket_ranges,
                   std::vector<double> center_xs,
                   std::vector<double> center_ys, double half_cell_diagonal,
                   const hilbert::HilbertGrid& grid, int entries_per_bucket)
    : grid_(&grid),
      entries_per_bucket_(entries_per_bucket),
      entries_(std::move(entries)),
      bucket_ranges_(std::move(bucket_ranges)),
      center_xs_(std::move(center_xs)),
      center_ys_(std::move(center_ys)),
      half_cell_diagonal_(half_cell_diagonal) {
  LBSQ_CHECK(entries_per_bucket_ >= 1);
  LBSQ_CHECK(center_xs_.size() == entries_.size());
  LBSQ_CHECK(center_ys_.size() == entries_.size());
  // Same ordering contracts as the building constructor: the patch path
  // must hand over a directory indistinguishable from a cold build.
  for (size_t i = 1; i < entries_.size(); ++i) {
    LBSQ_CHECK(entries_[i - 1].hilbert <= entries_[i].hilbert);
  }
  for (size_t i = 1; i < bucket_ranges_.size(); ++i) {
    LBSQ_CHECK(bucket_ranges_[i - 1].lo <= bucket_ranges_[i].lo);
    LBSQ_CHECK(bucket_ranges_[i - 1].hi <= bucket_ranges_[i].hi);
  }
}

int64_t AirIndex::SizeInBuckets() const {
  const int64_t n = static_cast<int64_t>(entries_.size());
  return std::max<int64_t>(1, (n + entries_per_bucket_ - 1) /
                                  entries_per_bucket_);
}

double AirIndex::KthDistanceUpperBound(geom::Point q, int k) const {
  KthBoundScratch scratch;
  return KthDistanceUpperBound(q, k, &scratch);
}

double AirIndex::KthDistanceUpperBound(geom::Point q, int k,
                                       KthBoundScratch* scratch) const {
  LBSQ_CHECK(k >= 1);
  if (static_cast<int>(entries_.size()) < k) {
    return std::numeric_limits<double>::infinity();
  }
  const size_t kth = static_cast<size_t>(k - 1);
  std::vector<double>& distances = scratch->distances;
  const auto select_kth = [&]() {
    std::nth_element(distances.begin(),
                     distances.begin() + static_cast<ptrdiff_t>(kth),
                     distances.end());
    return distances[kth];
  };
  // First guess: the square that holds k entries at the directory's mean
  // density, moved out to the world when q lies outside it.
  const geom::Rect& world = grid_->world();
  const bool finite_q = std::isfinite(q.x) && std::isfinite(q.y);
  double half = world.MinDistance(q) +
                0.5 * std::sqrt(static_cast<double>(k) * world.area() /
                                static_cast<double>(entries_.size()));
  for (;;) {
    const geom::Rect square = geom::Rect::CenteredSquare(q, half);
    if (!finite_q || !std::isfinite(half) || square.ContainsRect(world)) {
      // The cover would be the whole curve, or the square has no finite
      // extent to grow (q or its distances are not finite): scan every
      // entry. This also ends the loop below for any q.
      distances.resize(entries_.size());
      kernels::DistanceBatch(center_xs_.data(), center_ys_.data(),
                             entries_.size(), q.x, q.y, distances.data());
      return select_kth() + half_cell_diagonal_;
    }
    grid_->CoverRect(square, &scratch->cover);
    distances.clear();
    for (const hilbert::IndexRange& r : scratch->cover) {
      const auto first = std::lower_bound(
          entries_.begin(), entries_.end(), r.lo,
          [](const Entry& e, uint64_t h) { return e.hilbert < h; });
      const auto last = std::upper_bound(
          first, entries_.end(), r.hi,
          [](uint64_t h, const Entry& e) { return h < e.hilbert; });
      const size_t begin = static_cast<size_t>(first - entries_.begin());
      const size_t n = static_cast<size_t>(last - first);
      if (n == 0) continue;
      const size_t at = distances.size();
      distances.resize(at + n);
      kernels::DistanceBatch(center_xs_.data() + begin,
                             center_ys_.data() + begin, n, q.x, q.y,
                             distances.data() + at);
    }
    if (distances.size() <= kth) {
      half *= 2.0;
      continue;
    }
    const double d = select_kth();
    // Every center within d of q lies in the square, inside a cell of its
    // cover (centers sit half a cell in from their cell's edges, which
    // absorbs the rounding of the square's corners): the k-th smallest
    // distance of the cover is the directory's.
    if (d <= half) return d + half_cell_diagonal_;
    half = d;
  }
}

BucketInterval AirIndex::BucketsForSpan(uint64_t lo, uint64_t hi) const {
  // Both ends of the bucket ranges ascend, so the intersecting buckets are
  // those from the first whose range ends at or after lo up to the last
  // whose range starts at or before hi.
  const auto first = std::lower_bound(
      bucket_ranges_.begin(), bucket_ranges_.end(), lo,
      [](const hilbert::IndexRange& r, uint64_t v) { return r.hi < v; });
  const auto end = std::upper_bound(
      first, bucket_ranges_.end(), hi,
      [](uint64_t v, const hilbert::IndexRange& r) { return v < r.lo; });
  return BucketInterval{first - bucket_ranges_.begin(),
                        end - bucket_ranges_.begin()};
}

void AirIndex::BucketsForRanges(const std::vector<hilbert::IndexRange>& ranges,
                                std::vector<BucketInterval>* out) const {
  const size_t first = out->size();
  for (const hilbert::IndexRange& r : ranges) {
    const BucketInterval span = BucketsForSpan(r.lo, r.hi);
    if (span.size() == 0) continue;
    // Ranges ascend, so their intervals start in order; a bucket straddling
    // two ranges joins their intervals.
    if (out->size() > first && span.begin <= out->back().end) {
      out->back().end = std::max(out->back().end, span.end);
    } else {
      out->push_back(span);
    }
  }
}

}  // namespace lbsq::broadcast

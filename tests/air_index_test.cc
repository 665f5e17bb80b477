#include "broadcast/air_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "hilbert/partition.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "spatial/generators.h"
#include "spatial/poi.h"

namespace lbsq::broadcast {
namespace {

const geom::Rect kWorld{0.0, 0.0, 32.0, 32.0};

struct Fixture {
  hilbert::HilbertGrid grid{kWorld, 5};
  std::vector<spatial::Poi> pois;
  std::vector<DataBucket> buckets;

  explicit Fixture(int n, int capacity = 8, uint64_t seed = 1) {
    Rng rng(seed);
    pois = spatial::GenerateUniformPois(&rng, kWorld, n);
    buckets = BuildBuckets(pois, grid, capacity);
  }
};

TEST(AirIndexTest, OneEntryPerObject) {
  Fixture f(120);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_EQ(index.entries().size(), 120u);
}

TEST(AirIndexTest, SizeInBuckets) {
  Fixture f(120);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_EQ(index.SizeInBuckets(), 8);  // ceil(120 / 16)
  AirIndex big(f.buckets, f.grid, 1000);
  EXPECT_EQ(big.SizeInBuckets(), 1);
}

TEST(AirIndexTest, KthDistanceUpperBoundIsSound) {
  Fixture f(200);
  AirIndex index(f.buckets, f.grid, 16);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 32.0), rng.Uniform(0.0, 32.0)};
    for (int k : {1, 3, 10, 50}) {
      const double bound = index.KthDistanceUpperBound(q, k);
      const auto truth = spatial::BruteForceKnn(f.pois, q, k);
      EXPECT_GE(bound, truth.back().distance)
          << "k=" << k << " trial=" << trial;
    }
  }
}

TEST(AirIndexTest, KthDistanceUpperBoundIsTight) {
  // The bound overshoots by at most one cell diagonal.
  Fixture f(300);
  AirIndex index(f.buckets, f.grid, 16);
  const double diag = std::sqrt(2.0) * 32.0 / 32.0;  // cell size 1
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 32.0), rng.Uniform(0.0, 32.0)};
    const double bound = index.KthDistanceUpperBound(q, 5);
    const auto truth = spatial::BruteForceKnn(f.pois, q, 5);
    EXPECT_LE(bound, truth.back().distance + 2.0 * diag);
  }
}

TEST(AirIndexTest, KthDistanceUpperBoundInsufficientData) {
  Fixture f(3);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_TRUE(std::isinf(index.KthDistanceUpperBound({1.0, 1.0}, 5)));
  EXPECT_TRUE(std::isfinite(index.KthDistanceUpperBound({1.0, 1.0}, 3)));
}

// The ids of an interval list, ascending.
std::vector<int64_t> Ids(const std::vector<BucketInterval>& runs) {
  std::vector<int64_t> ids;
  BucketRetrieval{runs, {}}.AppendIds(&ids);
  return ids;
}

std::vector<int64_t> Ids(BucketInterval run) {
  return run.size() > 0 ? Ids(std::vector<BucketInterval>{run})
                        : std::vector<int64_t>{};
}

// Reference lookups: a linear scan over every bucket's curve range.
std::vector<int64_t> ScanSpan(const AirIndex& index, uint64_t lo,
                              uint64_t hi) {
  std::vector<int64_t> out;
  const std::vector<hilbert::IndexRange>& ranges = index.bucket_ranges();
  for (size_t b = 0; b < ranges.size(); ++b) {
    if (ranges[b].lo <= hi && ranges[b].hi >= lo) {
      out.push_back(static_cast<int64_t>(b));
    }
  }
  return out;
}

std::vector<int64_t> ScanRanges(
    const AirIndex& index, const std::vector<hilbert::IndexRange>& cover) {
  std::vector<int64_t> out;
  const std::vector<hilbert::IndexRange>& ranges = index.bucket_ranges();
  for (size_t b = 0; b < ranges.size(); ++b) {
    for (const hilbert::IndexRange& r : cover) {
      if (ranges[b].lo <= r.hi && ranges[b].hi >= r.lo) {
        out.push_back(static_cast<int64_t>(b));
        break;
      }
    }
  }
  return out;
}

// Reference k-th bound: every entry's center distance, then the selection.
double ScanKthBound(const AirIndex& index, geom::Point q, int k) {
  const size_t n = index.entries().size();
  if (static_cast<int>(n) < k) return std::numeric_limits<double>::infinity();
  std::vector<double> d(n);
  kernels::DistanceBatch(index.center_xs().data(), index.center_ys().data(),
                         n, q.x, q.y, d.data());
  std::nth_element(d.begin(), d.begin() + (k - 1), d.end());
  return d[static_cast<size_t>(k - 1)] + index.half_cell_diagonal();
}

TEST(AirIndexTest, BucketsForSpanFindsAllContainingPois) {
  Fixture f(250, 6);
  AirIndex index(f.buckets, f.grid, 16);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t a = rng.NextBelow(f.grid.num_cells());
    const uint64_t b = rng.NextBelow(f.grid.num_cells());
    const uint64_t lo = std::min(a, b);
    const uint64_t hi = std::max(a, b);
    const std::vector<int64_t> got = Ids(index.BucketsForSpan(lo, hi));
    // Every POI whose Hilbert value is in the span must live in a returned
    // bucket.
    for (const DataBucket& bucket : f.buckets) {
      for (const spatial::Poi& p : bucket.pois) {
        const uint64_t h = f.grid.IndexOf(p.pos);
        if (h >= lo && h <= hi) {
          EXPECT_TRUE(std::binary_search(got.begin(), got.end(), bucket.id));
        }
      }
    }
    // And every returned bucket genuinely overlaps the span.
    for (int64_t id : got) {
      const DataBucket& bucket = f.buckets[static_cast<size_t>(id)];
      EXPECT_TRUE(bucket.hilbert_lo <= hi && bucket.hilbert_hi >= lo);
    }
  }
}

TEST(AirIndexTest, BucketsForRangesSubsetOfSpan) {
  Fixture f(250, 6);
  AirIndex index(f.buckets, f.grid, 16);
  const std::vector<hilbert::IndexRange> ranges = {
      {10, 20}, {100, 150}, {800, 810}};
  std::vector<BucketInterval> runs;
  index.BucketsForRanges(ranges, &runs);
  const std::vector<int64_t> by_ranges = Ids(runs);
  const std::vector<int64_t> by_span = Ids(index.BucketsForSpan(10, 810));
  for (int64_t id : by_ranges) {
    EXPECT_TRUE(std::binary_search(by_span.begin(), by_span.end(), id));
  }
  EXPECT_LE(by_ranges.size(), by_span.size());
}

TEST(AirIndexTest, BucketsForRangesNoDuplicates) {
  Fixture f(100, 4);
  AirIndex index(f.buckets, f.grid, 16);
  // Overlapping ranges must not duplicate buckets.
  const std::vector<hilbert::IndexRange> ranges = {{0, 500}, {200, 900}};
  std::vector<BucketInterval> runs;
  index.BucketsForRanges(ranges, &runs);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_GT(runs[i].begin, runs[i - 1].end);
  }
  const std::vector<int64_t> got = Ids(runs);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i], got[i - 1]);
}

TEST(AirIndexTest, BinarySearchLookupsMatchLinearScans) {
  // Uniform and heavily clustered data (many POIs per cell, so neighboring
  // buckets share curve values), small and large buckets.
  for (const int capacity : {1, 3, 8}) {
    for (const bool clustered : {false, true}) {
      Rng rng(static_cast<uint64_t>(40 + capacity));
      const std::vector<spatial::Poi> pois =
          clustered ? spatial::GenerateClusteredPois(&rng, kWorld, 6, 40.0, 0.7)
                    : spatial::GenerateUniformPois(&rng, kWorld, 300);
      hilbert::HilbertGrid grid(kWorld, 5);
      const std::vector<DataBucket> buckets =
          BuildBuckets(pois, grid, capacity);
      AirIndex index(buckets, grid, 16);
      for (int trial = 0; trial < 200; ++trial) {
        const uint64_t a = rng.NextBelow(grid.num_cells());
        const uint64_t b = rng.NextBelow(grid.num_cells());
        const uint64_t lo = std::min(a, b);
        const uint64_t hi = trial % 4 == 0 ? lo : std::max(a, b);
        ASSERT_EQ(Ids(index.BucketsForSpan(lo, hi)), ScanSpan(index, lo, hi))
            << "[" << lo << ", " << hi << "]";
        const geom::Point c{rng.Uniform(-4.0, 36.0), rng.Uniform(-4.0, 36.0)};
        const geom::Rect rect{c.x, c.y, c.x + rng.Uniform(0.1, 12.0),
                              c.y + rng.Uniform(0.1, 12.0)};
        const std::vector<hilbert::IndexRange> cover = grid.CoverRect(rect);
        std::vector<BucketInterval> runs;
        index.BucketsForRanges(cover, &runs);
        ASSERT_EQ(Ids(runs), ScanRanges(index, cover));
        for (size_t i = 1; i < runs.size(); ++i) {
          EXPECT_GT(runs[i].begin, runs[i - 1].end);
        }
      }
    }
  }
}

TEST(AirIndexTest, KthBoundEndsForNonFiniteQuery) {
  // A query position from outside the program may be NaN, infinite or so
  // far out that its distances overflow: the bound still ends, with the
  // value of the full scan (NaN for a NaN position).
  Fixture f(500);
  AirIndex index(f.buckets, f.grid, 64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  KthBoundScratch scratch;
  for (const geom::Point q :
       {geom::Point{nan, 1.0}, geom::Point{1.0, nan}, geom::Point{nan, nan},
        geom::Point{-inf, 1.0}, geom::Point{inf, 1.0}, geom::Point{1.0, -inf},
        geom::Point{1.0, inf}, geom::Point{-inf, -inf}, geom::Point{inf, nan},
        geom::Point{-1e308, 1.0}, geom::Point{1e300, 1e300}}) {
    for (const int k : {1, 5, 100, 499, 500}) {
      const double want = ScanKthBound(index, q, k);
      const double got = index.KthDistanceUpperBound(q, k, &scratch);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << "k=" << k;
      } else {
        EXPECT_EQ(got, want) << "k=" << k << " q=(" << q.x << ", " << q.y
                             << ")";
      }
    }
  }
}

TEST(AirIndexTest, KthBoundMatchesFullScanOnMetroShards) {
  // Eight occupancy-balanced shards of a metro mix (clustered downtowns over
  // a uniform background), each indexed over the whole world as the sharded
  // engine builds them: most query points lie far from most shards' POIs.
  const geom::Rect world{0.0, 0.0, 40.0, 40.0};
  Rng rng(7);
  const std::vector<spatial::Poi> pois =
      spatial::GenerateMetroPois(&rng, world, 12000, 0.6, 30, 0.5);
  hilbert::HilbertGrid grid(world, 9);
  std::vector<geom::Point> positions;
  for (const spatial::Poi& p : pois) positions.push_back(p.pos);
  const hilbert::ShardMap map =
      hilbert::PartitionByOccupancy(grid, positions, 8);
  std::vector<std::vector<spatial::Poi>> shard_pois(8);
  for (const spatial::Poi& p : pois) {
    shard_pois[static_cast<size_t>(map.ShardOfIndex(grid.IndexOf(p.pos)))]
        .push_back(p);
  }

  const kernels::SimdTier before = kernels::ActiveTier();
  for (const kernels::SimdTier tier :
       {kernels::SimdTier::kScalar, kernels::MaxSupportedTier()}) {
    ASSERT_TRUE(kernels::SetActiveTier(tier));
    for (const std::vector<spatial::Poi>& shard : shard_pois) {
      ASSERT_FALSE(shard.empty());
      const std::vector<DataBucket> buckets = BuildBuckets(shard, grid, 8);
      AirIndex index(buckets, grid, 64);
      const int n = static_cast<int>(shard.size());
      KthBoundScratch scratch;
      for (int trial = 0; trial < 40; ++trial) {
        // Inside the world, and up to a world side outside it.
        const double lo = trial % 4 == 3 ? -40.0 : 0.0;
        const double hi = trial % 4 == 3 ? 80.0 : 40.0;
        const geom::Point q{rng.Uniform(lo, hi), rng.Uniform(lo, hi)};
        for (const int k : {1, 2, 5, 20, 150, n - 1, n, n + 1}) {
          const double want = ScanKthBound(index, q, k);
          EXPECT_EQ(index.KthDistanceUpperBound(q, k, &scratch), want)
              << kernels::TierName(tier) << " k=" << k << " q=(" << q.x
              << ", " << q.y << ")";
        }
      }
    }
  }
  ASSERT_TRUE(kernels::SetActiveTier(before));
}
}  // namespace
}  // namespace lbsq::broadcast

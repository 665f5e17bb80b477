#include "onair/onair_knn.h"
#include "onair/onair_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "geom/circle.h"
#include "spatial/generators.h"

namespace lbsq::onair {
namespace {

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

std::unique_ptr<broadcast::BroadcastSystem> MakeSystem(int n_pois,
                                                       uint64_t seed = 1) {
  Rng rng(seed);
  broadcast::BroadcastParams params;
  params.bucket_capacity = 8;
  params.index_entries_per_bucket = 32;
  params.m = 4;
  params.hilbert_order = 5;
  return std::make_unique<broadcast::BroadcastSystem>(
      spatial::GenerateUniformPois(&rng, kWorld, n_pois), kWorld, params);
}

TEST(OnAirKnnTest, ExactAcrossRandomQueries) {
  auto system = MakeSystem(300);
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    const int k = static_cast<int>(rng.UniformInt(1, 12));
    const auto result = OnAirKnn(*system, q, k, trial * 13);
    const auto truth = spatial::BruteForceKnn(system->pois(), q, k);
    ASSERT_EQ(result.neighbors.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_DOUBLE_EQ(result.neighbors[i].distance, truth[i].distance);
    }
  }
}

TEST(OnAirKnnTest, KLargerThanDatabase) {
  auto system = MakeSystem(5);
  const auto result = OnAirKnn(*system, {10.0, 10.0}, 20, 0);
  EXPECT_EQ(result.neighbors.size(), 5u);
}

TEST(OnAirKnnTest, StatsAreConsistent) {
  auto system = MakeSystem(400);
  const auto result = OnAirKnn(*system, {10.0, 10.0}, 5, 7);
  EXPECT_GT(result.stats.access_latency, 0);
  EXPECT_LE(result.stats.tuning_time, result.stats.access_latency);
  EXPECT_EQ(result.stats.buckets_read, result.retrieval.Count());
}

TEST(OnAirKnnTest, SearchCircleContainsResults) {
  auto system = MakeSystem(300);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    const auto result = OnAirKnn(*system, q, 7, 0);
    for (const auto& n : result.neighbors) {
      EXPECT_LE(n.distance, result.search_circle.radius + 1e-12);
    }
  }
}

TEST(OnAirKnnTest, LargerKDownloadsMoreBuckets) {
  auto system = MakeSystem(500);
  const auto small = OnAirKnn(*system, {10.0, 10.0}, 1, 0);
  const auto large = OnAirKnn(*system, {10.0, 10.0}, 50, 0);
  EXPECT_LT(small.retrieval.Count(), large.retrieval.Count());
}

TEST(OnAirKnnTest, PartitionedCircleRetrievalIsSubsetAndSufficient) {
  auto system = MakeSystem(400);
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const geom::Point q{rng.Uniform(2.0, 18.0), rng.Uniform(2.0, 18.0)};
    const geom::Circle circle{q, rng.Uniform(0.5, 4.0)};
    const auto span =
        BucketsForWindow(*system, circle.Mbr(), WindowRetrieval::kSingleSpan);
    const auto part = BucketsForWindow(*system, circle.Mbr(),
                                       WindowRetrieval::kPartitionedRanges);
    EXPECT_LE(part.Count(), span.Count());
    // Every POI inside the circle's MBR must be in a partition bucket.
    std::vector<int64_t> ids;
    part.AppendIds(&ids);
    const auto received = system->CollectPois(ids);
    for (const auto& poi : system->pois()) {
      if (!circle.Mbr().Contains(poi.pos)) continue;
      EXPECT_TRUE(std::any_of(
          received.begin(), received.end(),
          [&poi](const spatial::Poi& p) { return p.id == poi.id; }));
    }
  }
}

TEST(OnAirKnnTest, KnnFromSpanCoverMatchesEveryKeptBucket) {
  // The cover rule must answer as a read of every kept bucket of the span
  // does, for any radius (too small ones send it to the whole span), with
  // skipped buckets and with extra POIs that repeat server ids or are new.
  auto system = MakeSystem(400);
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Point q{rng.Uniform(-2.0, 22.0), rng.Uniform(-2.0, 22.0)};
    const int k = static_cast<int>(rng.UniformInt(1, 25));
    const double radius = rng.Uniform(0.2, 6.0);
    const geom::Rect mbr = geom::Circle{q, radius}.Mbr();
    const std::vector<hilbert::IndexRange> cover = system->grid().CoverRect(mbr);
    broadcast::BucketRetrieval retrieval;
    AppendBucketsForCover(system->index(), cover, WindowRetrieval::kSingleSpan,
                          &retrieval.intervals);
    std::vector<int64_t> span_ids;
    retrieval.AppendIds(&span_ids);
    for (const int64_t id : span_ids) {
      if (rng.Uniform(0.0, 1.0) < 0.15) retrieval.skipped.push_back(id);
    }
    std::vector<spatial::PoiDistance> extra;
    for (int e = 0; e < static_cast<int>(rng.UniformInt(0, 6)); ++e) {
      spatial::Poi poi;
      if (e % 2 == 0) {
        poi = system->pois()[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(system->pois().size()) - 1))];
      } else {
        poi.id = 100000 + e;
        poi.pos = {rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
      }
      extra.push_back(spatial::PoiDistance{poi, geom::Distance(q, poi.pos)});
    }
    std::vector<broadcast::BucketInterval> cover_buckets;
    AppendBucketsForCover(system->index(), cover,
                          WindowRetrieval::kPartitionedRanges, &cover_buckets);

    std::vector<int64_t> ids;
    broadcast::CollectScratch collect;
    kernels::SlabScratch slab;
    std::vector<spatial::Poi> fast_pois;
    std::vector<spatial::Poi> all_pois;
    std::vector<spatial::PoiDistance> fast;
    std::vector<spatial::PoiDistance> all;
    KnnFromSpan(*system, q, k, radius, retrieval, &cover_buckets, extra, &ids,
                &collect, &slab, &fast_pois, &fast);
    KnnFromSpan(*system, q, k, radius, retrieval, nullptr, extra, &ids,
                &collect, &slab, &all_pois, &all);
    ASSERT_EQ(fast.size(), all.size()) << "trial " << trial;
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(fast[i].poi.id, all[i].poi.id) << "trial " << trial;
      EXPECT_EQ(fast[i].distance, all[i].distance) << "trial " << trial;
    }
    // Both leave the same POIs inside the MBR, in id order.
    const auto in_mbr = [&mbr](const std::vector<spatial::Poi>& pois) {
      std::vector<spatial::Poi> out;
      for (const spatial::Poi& p : pois) {
        if (mbr.Contains(p.pos)) out.push_back(p);
      }
      return out;
    };
    EXPECT_EQ(in_mbr(fast_pois), in_mbr(all_pois)) << "trial " << trial;
  }
}

TEST(OnAirWindowTest, WindowPoisMatchEveryRetrievedBucket) {
  // A retrieval of part of the window (as for a residual window) gives the
  // window POIs of the retrieved buckets, whichever buckets those are.
  auto system = MakeSystem(400);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 16.0), rng.Uniform(0.0, 16.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(0.5, 4.0),
                            a.y + rng.Uniform(0.5, 4.0)};
    const geom::Rect part{window.x1, window.y1,
                          window.x1 + 0.5 * window.width(), window.y2};
    const auto retrieved =
        BucketsForWindow(*system, trial % 2 == 0 ? part : window,
                         trial % 4 < 2 ? WindowRetrieval::kSingleSpan
                                       : WindowRetrieval::kPartitionedRanges);
    std::vector<int64_t> ids;
    retrieved.AppendIds(&ids);
    const auto want =
        spatial::BruteForceWindow(system->CollectPois(ids), window);
    std::vector<broadcast::BucketInterval> scratch;
    std::vector<spatial::Poi> got;
    AppendWindowPois(*system, window, system->grid().CoverRect(window),
                     retrieved.intervals, &scratch, &got);
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(OnAirWindowTest, ExactAcrossRandomQueries) {
  auto system = MakeSystem(300);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 18.0), rng.Uniform(0.0, 18.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(0.5, 6.0),
                            a.y + rng.Uniform(0.5, 6.0)};
    for (const WindowRetrieval retrieval :
         {WindowRetrieval::kSingleSpan, WindowRetrieval::kPartitionedRanges}) {
      const auto result = OnAirWindow(*system, window, trial * 7, retrieval);
      EXPECT_EQ(result.pois, spatial::BruteForceWindow(system->pois(), window));
    }
  }
}

TEST(OnAirWindowTest, PartitionedRangesNeverDownloadMore) {
  auto system = MakeSystem(400);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(1.0, 5.0),
                            a.y + rng.Uniform(1.0, 5.0)};
    const auto span = BucketsForWindow(*system, window,
                                       WindowRetrieval::kSingleSpan);
    const auto ranges = BucketsForWindow(*system, window,
                                         WindowRetrieval::kPartitionedRanges);
    EXPECT_LE(ranges.Count(), span.Count());
  }
}

TEST(OnAirWindowTest, EmptyWindowReturnsNothing) {
  auto system = MakeSystem(100);
  const auto result =
      OnAirWindow(*system, geom::Rect{30.0, 30.0, 31.0, 31.0}, 0);
  EXPECT_TRUE(result.pois.empty());
}

TEST(OnAirWindowTest, WholeWorldWindowReturnsAll) {
  auto system = MakeSystem(150);
  const auto result = OnAirWindow(*system, kWorld, 0);
  EXPECT_EQ(result.pois.size(), 150u);
  // Single span over the whole world downloads the whole file.
  EXPECT_EQ(result.retrieval.Count(),
            static_cast<int64_t>(system->buckets().size()));
}

}  // namespace
}  // namespace lbsq::onair

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "kernels/dispatch.h"
#include "kernels/poi_slab.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "spatial/poi.h"

namespace lbsq::kernels {
namespace {

// Sizes chosen to cross every lane boundary: empty, single, below / at /
// above the 2-lane (SSE2) and 4-lane (AVX2) widths, and a few larger blocks
// with ragged tails.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100,
                         257, 1000};

std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (TierIsRunnable(t)) tiers.push_back(t);
  }
  return tiers;
}

struct Slab {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<int64_t> ids;
};

// `quantized` draws coordinates from a coarse integer grid so that many
// points land at exactly equal distances from the query, exercising the
// (distance, id) tie-break; otherwise coordinates are continuous.
Slab RandomSlab(Rng* rng, size_t n, bool quantized) {
  Slab s;
  s.xs.reserve(n);
  s.ys.reserve(n);
  s.ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (quantized) {
      s.xs.push_back(static_cast<double>(rng->UniformInt(-4, 4)));
      s.ys.push_back(static_cast<double>(rng->UniformInt(-4, 4)));
    } else {
      s.xs.push_back(rng->Uniform(-10.0, 10.0));
      s.ys.push_back(rng->Uniform(-10.0, 10.0));
    }
    // Occasional duplicate ids so fully equal (distance, id) keys occur and
    // the earliest-input-index rule is observable.
    s.ids.push_back(quantized ? rng->UniformInt(0, 8)
                              : static_cast<int64_t>(i) * 3 + 1);
  }
  return s;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// --- Differential suite: every runnable tier vs the scalar reference -------

TEST(KernelsDifferentialTest, DistanceBatchBitIdenticalAcrossTiers) {
  Rng rng(11);
  for (size_t n : kSizes) {
    for (bool quantized : {false, true}) {
      const Slab s = RandomSlab(&rng, n, quantized);
      const double qx = rng.Uniform(-10.0, 10.0);
      const double qy = rng.Uniform(-10.0, 10.0);
      std::vector<double> ref(n), got(n);
      internal::DistanceBatchScalar(s.xs.data(), s.ys.data(), n, qx, qy,
                                    ref.data());
      for (size_t i = 0; i < n; ++i) {
        const double dx = s.xs[i] - qx;
        const double dy = s.ys[i] - qy;
        ASSERT_EQ(Bits(ref[i]), Bits(std::sqrt(dx * dx + dy * dy)));
      }
      for (SimdTier tier : RunnableTiers()) {
        std::fill(got.begin(), got.end(), -1.0);
        OpsForTier(tier).distance_batch(s.xs.data(), s.ys.data(), n, qx, qy,
                                        got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(ref[i]), Bits(got[i]))
              << "tier=" << TierName(tier) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsDifferentialTest, AppendIdsWithinRadiusMatchesScalar) {
  Rng rng(13);
  for (size_t n : kSizes) {
    for (bool quantized : {false, true}) {
      const Slab s = RandomSlab(&rng, n, quantized);
      const double cx = rng.Uniform(-5.0, 5.0);
      const double cy = rng.Uniform(-5.0, 5.0);
      // Radii chosen so boundary hits (d^2 == r2, closed predicate) occur in
      // the quantized runs.
      const double r = quantized ? 3.0 : rng.Uniform(0.0, 12.0);
      const double r2 = r * r;
      std::vector<int64_t> ref = {-77};  // appended, not overwritten
      const size_t ref_count = internal::AppendIdsWithinRadiusScalar(
          s.xs.data(), s.ys.data(), s.ids.data(), n, cx, cy, r2, &ref);
      ASSERT_EQ(ref.size(), ref_count + 1);
      ASSERT_EQ(ref.front(), -77);
      for (SimdTier tier : RunnableTiers()) {
        std::vector<int64_t> got = {-77};
        const size_t got_count =
            OpsForTier(tier).append_ids_within_radius(
                s.xs.data(), s.ys.data(), s.ids.data(), n, cx, cy, r2, &got);
        EXPECT_EQ(ref_count, got_count)
            << "tier=" << TierName(tier) << " n=" << n;
        EXPECT_EQ(ref, got) << "tier=" << TierName(tier) << " n=" << n;
      }
    }
  }
}

TEST(KernelsDifferentialTest, SelectInWindowMatchesScalar) {
  Rng rng(14);
  for (size_t n : kSizes) {
    for (bool quantized : {false, true}) {
      const Slab s = RandomSlab(&rng, n, quantized);
      // Quantized runs use integer window edges so points sit exactly on the
      // closed boundary.
      const double x1 = quantized ? -2.0 : rng.Uniform(-10.0, 0.0);
      const double y1 = quantized ? -3.0 : rng.Uniform(-10.0, 0.0);
      const double x2 = quantized ? 2.0 : rng.Uniform(0.0, 10.0);
      const double y2 = quantized ? 1.0 : rng.Uniform(0.0, 10.0);
      std::vector<uint32_t> ref(n + 1, 0xdeadbeef), got(n + 1, 0xdeadbeef);
      const size_t ref_count = internal::SelectInWindowScalar(
          s.xs.data(), s.ys.data(), n, x1, y1, x2, y2, ref.data());
      for (size_t j = 0; j < ref_count; ++j) {
        const uint32_t i = ref[j];
        ASSERT_TRUE(x1 <= s.xs[i] && s.xs[i] <= x2);
        ASSERT_TRUE(y1 <= s.ys[i] && s.ys[i] <= y2);
        if (j > 0) {
          ASSERT_LT(ref[j - 1], i);  // ascending input order
        }
      }
      for (SimdTier tier : RunnableTiers()) {
        const size_t got_count = OpsForTier(tier).select_in_window(
            s.xs.data(), s.ys.data(), n, x1, y1, x2, y2, got.data());
        ASSERT_EQ(ref_count, got_count)
            << "tier=" << TierName(tier) << " n=" << n;
        for (size_t j = 0; j < ref_count; ++j) {
          ASSERT_EQ(ref[j], got[j])
              << "tier=" << TierName(tier) << " n=" << n << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelsDifferentialTest, KSmallestMatchesStableSortReference) {
  Rng rng(15);
  for (size_t n : kSizes) {
    for (bool quantized : {false, true}) {
      const Slab s = RandomSlab(&rng, n, quantized);
      std::vector<double> dist(n);
      const double qx = rng.Uniform(-4.0, 4.0);
      const double qy = rng.Uniform(-4.0, 4.0);
      internal::DistanceBatchScalar(s.xs.data(), s.ys.data(), n, qx, qy,
                                    dist.data());
      for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{5}, n / 2,
                       n, n + 4}) {
        // Independent reference: stable sort by (distance, id) keeps the
        // earliest input index on fully equal keys — exactly the contract.
        std::vector<uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                           if (dist[a] != dist[b]) return dist[a] < dist[b];
                           return s.ids[a] < s.ids[b];
                         });
        const size_t take = std::min(k, n);
        std::vector<uint32_t> ref(order.begin(), order.begin() + take);
        for (SimdTier tier : RunnableTiers()) {
          std::vector<uint32_t> got(k + 1, 0xdeadbeef);
          const size_t got_count = OpsForTier(tier).k_smallest(
              dist.data(), s.ids.data(), n, k, got.data());
          ASSERT_EQ(take, got_count)
              << "tier=" << TierName(tier) << " n=" << n << " k=" << k;
          for (size_t j = 0; j < take; ++j) {
            ASSERT_EQ(ref[j], got[j]) << "tier=" << TierName(tier)
                                      << " n=" << n << " k=" << k
                                      << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelsDifferentialTest, IsSortedUniqueMatchesScalar) {
  Rng rng(16);
  for (size_t n : kSizes) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<int64_t> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<int64_t>(i) * 2;
      }
      if (variant == 1 && n >= 2) {  // one duplicate at a random position
        const size_t at = 1 + rng.NextBelow(n - 1);
        v[at] = v[at - 1];
      } else if (variant == 2 && n >= 2) {  // one inversion
        const size_t at = 1 + rng.NextBelow(n - 1);
        std::swap(v[at - 1], v[at]);
      } else if (variant == 3) {  // fully random
        for (size_t i = 0; i < n; ++i) v[i] = rng.UniformInt(-50, 50);
      }
      const bool ref = internal::IsSortedUniqueI64Scalar(v.data(), n);
      for (SimdTier tier : RunnableTiers()) {
        EXPECT_EQ(ref, OpsForTier(tier).is_sorted_unique_i64(v.data(), n))
            << "tier=" << TierName(tier) << " n=" << n
            << " variant=" << variant;
      }
    }
  }
}

// --- PoiSlab / scratch ------------------------------------------------------

TEST(PoiSlabTest, AssignTransposesAndReassigns) {
  std::vector<spatial::Poi> pois = {
      {.id = 5, .pos = {1.0, 2.0}}, {.id = 9, .pos = {3.0, 4.0}}};
  PoiSlab slab;
  slab.Assign(pois.data(), pois.size());
  ASSERT_EQ(slab.size(), 2u);
  EXPECT_EQ(slab.ids()[0], 5);
  EXPECT_EQ(slab.ids()[1], 9);
  EXPECT_EQ(slab.xs()[1], 3.0);
  EXPECT_EQ(slab.ys()[0], 2.0);
  slab.Assign(pois.data(), 1);  // shrink reassign keeps only the prefix
  ASSERT_EQ(slab.size(), 1u);
  EXPECT_EQ(slab.ids()[0], 5);
  slab.Assign(pois.data(), 0);
  EXPECT_TRUE(slab.empty());
}

TEST(PoiSlabTest, ScratchBuffersAreGrowOnly) {
  SlabScratch scratch;
  double* d1 = scratch.DistFor(64);
  uint32_t* i1 = scratch.IdxFor(64);
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(i1, nullptr);
  // A smaller request must not reallocate (steady-state zero-alloc path).
  EXPECT_EQ(scratch.DistFor(8), d1);
  EXPECT_EQ(scratch.IdxFor(8), i1);
}

// --- Dispatch ---------------------------------------------------------------

TEST(DispatchTest, ParseTier) {
  SimdTier tier = SimdTier::kAvx2;
  bool is_auto = false;
  EXPECT_TRUE(ParseTier("scalar", &tier, &is_auto));
  EXPECT_EQ(tier, SimdTier::kScalar);
  EXPECT_FALSE(is_auto);
  EXPECT_TRUE(ParseTier("sse2", &tier, &is_auto));
  EXPECT_EQ(tier, SimdTier::kSse2);
  EXPECT_TRUE(ParseTier("avx2", &tier, &is_auto));
  EXPECT_EQ(tier, SimdTier::kAvx2);
  EXPECT_TRUE(ParseTier("auto", &tier, &is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_FALSE(ParseTier("", &tier, &is_auto));
  EXPECT_FALSE(ParseTier("AVX2", &tier, &is_auto));
  EXPECT_FALSE(ParseTier("avx512", &tier, &is_auto));
}

TEST(DispatchTest, ScalarAlwaysRunnableAndOrdered) {
  EXPECT_TRUE(TierIsRunnable(SimdTier::kScalar));
  EXPECT_EQ(&OpsForTier(SimdTier::kScalar), &internal::kScalarOps);
  // Runnability is downward-closed: any tier at or below the max works.
  const SimdTier max = MaxSupportedTier();
  for (int t = 0; t <= static_cast<int>(max); ++t) {
    EXPECT_TRUE(TierIsRunnable(static_cast<SimdTier>(t)));
  }
}

TEST(DispatchTest, SetActiveTierSwitchesTable) {
  const SimdTier before = ActiveTier();
  ASSERT_TRUE(SetActiveTier(SimdTier::kScalar));
  EXPECT_EQ(ActiveTier(), SimdTier::kScalar);
  EXPECT_EQ(&Ops(), &internal::kScalarOps);
  ASSERT_TRUE(SetActiveTier(before));
  EXPECT_EQ(ActiveTier(), before);
}

// --- End-to-end: the simulator is tier-invariant ----------------------------

TEST(KernelsEndToEndTest, SimulatorMetricsIdenticalScalarVsMaxTier) {
  sim::SimConfig config;
  config.params = sim::LosAngelesCity();
  config.query_type = sim::QueryType::kKnn;
  config.world_side_mi = 1.0;
  config.warmup_min = 10.0;
  config.duration_min = 10.0;
  config.seed = 7;

  const SimdTier before = ActiveTier();
  ASSERT_TRUE(SetActiveTier(SimdTier::kScalar));
  sim::Simulator scalar_sim(config);
  const sim::SimMetrics scalar_metrics = scalar_sim.Run();

  ASSERT_TRUE(SetActiveTier(MaxSupportedTier()));
  sim::Simulator simd_sim(config);
  const sim::SimMetrics simd_metrics = simd_sim.Run();
  ASSERT_TRUE(SetActiveTier(before));

  EXPECT_TRUE(scalar_metrics == simd_metrics)
      << "simulation diverged between scalar and "
      << TierName(MaxSupportedTier());
}

}  // namespace
}  // namespace lbsq::kernels

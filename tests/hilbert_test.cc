#include "hilbert/hilbert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geom/rect.h"

namespace lbsq::hilbert {
namespace {

TEST(HilbertCurveTest, Order1Layout) {
  // The canonical order-1 curve visits (0,0), (0,1), (1,1), (1,0).
  EXPECT_EQ(XyToIndex(1, {0, 0}), 0u);
  EXPECT_EQ(XyToIndex(1, {0, 1}), 1u);
  EXPECT_EQ(XyToIndex(1, {1, 1}), 2u);
  EXPECT_EQ(XyToIndex(1, {1, 0}), 3u);
}

TEST(HilbertCurveTest, RoundTripSmallOrders) {
  // Exhaustive in both directions: index -> xy -> index over every index,
  // and xy -> index -> xy over every cell of the grid, for orders 1-6
  // (4..4096 cells). Together they prove the mapping is a bijection at
  // these orders, with no reliance on sampling.
  for (int order = 1; order <= 6; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    for (uint64_t d = 0; d < cells; ++d) {
      const CellXY cell = IndexToXy(order, d);
      EXPECT_EQ(XyToIndex(order, cell), d) << "order " << order;
    }
    const uint32_t side = 1u << order;
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const CellXY cell{x, y};
        EXPECT_EQ(IndexToXy(order, XyToIndex(order, cell)), cell)
            << "order " << order << " cell (" << x << "," << y << ")";
      }
    }
  }
}

TEST(HilbertCurveTest, RoundTripLargeOrderSpotChecks) {
  Rng rng(3);
  const int order = 16;
  for (int i = 0; i < 10000; ++i) {
    const CellXY cell{static_cast<uint32_t>(rng.NextBelow(1u << order)),
                      static_cast<uint32_t>(rng.NextBelow(1u << order))};
    EXPECT_EQ(IndexToXy(order, XyToIndex(order, cell)), cell);
  }
}

TEST(HilbertCurveTest, IsBijectionOrder4) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      seen.insert(XyToIndex(4, {x, y}));
    }
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.rbegin(), 255u);
}

TEST(HilbertCurveTest, ConsecutiveIndexesAreGridNeighbors) {
  // The defining continuity property of the Hilbert curve.
  for (int order = 1; order <= 7; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    CellXY prev = IndexToXy(order, 0);
    for (uint64_t d = 1; d < cells; ++d) {
      const CellXY cur = IndexToXy(order, d);
      const int dx = std::abs(static_cast<int>(cur.x) -
                              static_cast<int>(prev.x));
      const int dy = std::abs(static_cast<int>(cur.y) -
                              static_cast<int>(prev.y));
      EXPECT_EQ(dx + dy, 1) << "order " << order << " d " << d;
      prev = cur;
    }
  }
}

TEST(MortonCurveTest, KnownSmallLayout) {
  // Z-order: index = interleave(y, x) bitwise.
  EXPECT_EQ(MortonXyToIndex(2, {0, 0}), 0u);
  EXPECT_EQ(MortonXyToIndex(2, {1, 0}), 1u);
  EXPECT_EQ(MortonXyToIndex(2, {0, 1}), 2u);
  EXPECT_EQ(MortonXyToIndex(2, {1, 1}), 3u);
  EXPECT_EQ(MortonXyToIndex(2, {2, 0}), 4u);
  EXPECT_EQ(MortonXyToIndex(2, {3, 3}), 15u);
}

TEST(MortonCurveTest, RoundTrip) {
  // Exhaustive in both directions at orders 1-6 (see the Hilbert twin).
  for (int order = 1; order <= 6; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    for (uint64_t d = 0; d < cells; ++d) {
      EXPECT_EQ(MortonXyToIndex(order, MortonIndexToXy(order, d)), d);
    }
    const uint32_t side = 1u << order;
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const CellXY cell{x, y};
        EXPECT_EQ(MortonIndexToXy(order, MortonXyToIndex(order, cell)), cell)
            << "order " << order << " cell (" << x << "," << y << ")";
      }
    }
  }
}

TEST(MortonCurveTest, RoundTripLargeOrder) {
  Rng rng(5);
  const int order = 16;
  for (int i = 0; i < 5000; ++i) {
    const CellXY cell{static_cast<uint32_t>(rng.NextBelow(1u << order)),
                      static_cast<uint32_t>(rng.NextBelow(1u << order))};
    EXPECT_EQ(MortonIndexToXy(order, MortonXyToIndex(order, cell)), cell);
  }
}

TEST(MortonGridTest, CoverRectExactness) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 16.0, 16.0}, 4, CurveKind::kMorton);
  Rng rng(19);
  for (int trial = 0; trial < 25; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(0.5, 6.0),
                           a.y + rng.Uniform(0.5, 6.0)};
    const auto ranges = grid.CoverRect(query);
    auto covered = [&ranges](uint64_t d) {
      for (const IndexRange& r : ranges) {
        if (d >= r.lo && d <= r.hi) return true;
      }
      return false;
    };
    for (uint64_t d = 0; d < grid.num_cells(); ++d) {
      EXPECT_EQ(covered(d), grid.CellRect(d).Intersects(query));
    }
  }
}

TEST(MortonGridTest, HilbertFragmentsLessThanMorton) {
  // The defining comparison: on average the Hilbert cover of a window
  // consists of fewer contiguous runs than the Morton cover.
  const geom::Rect world{0.0, 0.0, 32.0, 32.0};
  HilbertGrid hilbert(world, 5, CurveKind::kHilbert);
  HilbertGrid morton(world, 5, CurveKind::kMorton);
  Rng rng(23);
  int64_t hilbert_fragments = 0;
  int64_t morton_fragments = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 24.0), rng.Uniform(0.0, 24.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(2.0, 8.0),
                           a.y + rng.Uniform(2.0, 8.0)};
    hilbert_fragments += static_cast<int64_t>(hilbert.CoverRect(query).size());
    morton_fragments += static_cast<int64_t>(morton.CoverRect(query).size());
  }
  EXPECT_LT(hilbert_fragments, morton_fragments);
}

TEST(HilbertGridTest, CellOfCorners) {
  const geom::Rect world{0.0, 0.0, 8.0, 8.0};
  HilbertGrid grid(world, 3);  // 8x8 cells of size 1
  EXPECT_EQ(grid.CellOf({0.5, 0.5}), (CellXY{0, 0}));
  EXPECT_EQ(grid.CellOf({7.5, 7.5}), (CellXY{7, 7}));
  // The world's max corner clamps into the last cell.
  EXPECT_EQ(grid.CellOf({8.0, 8.0}), (CellXY{7, 7}));
  // Outside points clamp to the border.
  EXPECT_EQ(grid.CellOf({-3.0, 100.0}), (CellXY{0, 7}));
}

TEST(HilbertGridTest, CellRectRoundTrip) {
  const geom::Rect world{-4.0, 2.0, 12.0, 10.0};
  HilbertGrid grid(world, 4);
  for (uint64_t d = 0; d < grid.num_cells(); d += 7) {
    const geom::Rect cell = grid.CellRect(d);
    EXPECT_EQ(grid.IndexOf(cell.center()), d);
  }
}

TEST(HilbertGridTest, CoverRectWholeWorldIsOneRange) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 1.0, 1.0}, 4);
  const auto ranges = grid.CoverRect(geom::Rect{0.0, 0.0, 1.0, 1.0});
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lo, 0u);
  EXPECT_EQ(ranges[0].hi, grid.num_cells() - 1);
}

TEST(HilbertGridTest, CoverRectExactness) {
  // Every cell intersecting the query must be covered by some range, and
  // every range endpoint must correspond to an intersecting cell.
  HilbertGrid grid(geom::Rect{0.0, 0.0, 16.0, 16.0}, 4);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(0.5, 6.0),
                           a.y + rng.Uniform(0.5, 6.0)};
    const auto ranges = grid.CoverRect(query);
    auto covered = [&ranges](uint64_t d) {
      for (const IndexRange& r : ranges) {
        if (d >= r.lo && d <= r.hi) return true;
      }
      return false;
    };
    for (uint64_t d = 0; d < grid.num_cells(); ++d) {
      const bool intersects = grid.CellRect(d).Intersects(query);
      EXPECT_EQ(covered(d), intersects) << "cell " << d;
    }
    // Ranges are sorted and non-adjacent (maximally merged).
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].lo, ranges[i - 1].hi + 1);
    }
  }
}

// The reference cover: every cell of the clamped query rectangle,
// linearized, sorted and merged into maximal ranges.
std::vector<IndexRange> EnumeratedCover(const HilbertGrid& grid,
                                        const geom::Rect& query) {
  std::vector<IndexRange> out;
  const geom::Rect q = query.Intersection(grid.world());
  if (q.empty()) return out;
  const CellXY lo = grid.CellOf({q.x1, q.y1});
  const CellXY hi = grid.CellOf({q.x2, q.y2});
  std::vector<uint64_t> indexes;
  for (uint32_t y = lo.y; y <= hi.y; ++y) {
    for (uint32_t x = lo.x; x <= hi.x; ++x) {
      indexes.push_back(grid.ToIndex(CellXY{x, y}));
    }
  }
  std::sort(indexes.begin(), indexes.end());
  for (uint64_t idx : indexes) {
    if (!out.empty() && out.back().hi + 1 == idx) {
      out.back().hi = idx;
    } else {
      out.push_back(IndexRange{idx, idx});
    }
  }
  return out;
}

TEST(HilbertGridTest, CoverRectMatchesEnumeratedCover) {
  // Random rectangles inside, across and wholly outside the world (thin,
  // square and world-sized ones), on both curves at orders 1-9.
  const geom::Rect world{-3.0, 2.0, 13.0, 10.0};
  Rng rng(29);
  std::vector<IndexRange> fast;
  for (const CurveKind curve : {CurveKind::kHilbert, CurveKind::kMorton}) {
    for (int order = 1; order <= 9; ++order) {
      const HilbertGrid grid(world, order, curve);
      for (int trial = 0; trial < 150; ++trial) {
        const geom::Point a{rng.Uniform(-8.0, 18.0), rng.Uniform(-4.0, 16.0)};
        const double w = trial % 5 == 0 ? rng.Uniform(0.0, 0.05)
                                        : rng.Uniform(0.0, 20.0);
        const double h = trial % 7 == 0 ? rng.Uniform(0.0, 0.05)
                                        : rng.Uniform(0.0, 12.0);
        const geom::Rect query{a.x, a.y, a.x + w, a.y + h};
        grid.CoverRect(query, &fast);
        ASSERT_EQ(fast, EnumeratedCover(grid, query))
            << (curve == CurveKind::kHilbert ? "hilbert" : "morton")
            << " order " << order << " trial " << trial;
      }
      grid.CoverRect(world, &fast);
      ASSERT_EQ(fast, EnumeratedCover(grid, world));
    }
  }
}

TEST(HilbertGridTest, CoverRectOutsideWorldIsEmpty) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 1.0, 1.0}, 3);
  EXPECT_TRUE(grid.CoverRect(geom::Rect{2.0, 2.0, 3.0, 3.0}).empty());
}

TEST(HilbertGridTest, ClusteringBeatsRowMajorOrder) {
  // The locality property the broadcast server relies on (Jagadish; Moon et
  // al.): the cells of a query window form fewer contiguous runs along the
  // Hilbert curve than along a row-major order, so fewer disjoint on-air
  // segments must be retrieved. For a w x h window row-major always needs
  // exactly h runs; Hilbert averages about perimeter/4.
  const int order = 5;
  const uint32_t n = 1u << order;
  auto clusters = [](std::vector<uint64_t> keys) {
    std::sort(keys.begin(), keys.end());
    int runs = keys.empty() ? 0 : 1;
    for (size_t i = 1; i < keys.size(); ++i) {
      if (keys[i] != keys[i - 1] + 1) ++runs;
    }
    return runs;
  };
  double hilbert_total = 0.0;
  double rowmajor_total = 0.0;
  int windows = 0;
  const uint32_t w = 2, h = 8;  // tall windows, the row-major worst case
  for (uint32_t x0 = 0; x0 + w <= n; x0 += 3) {
    for (uint32_t y0 = 0; y0 + h <= n; y0 += 3) {
      std::vector<uint64_t> hilbert_keys;
      std::vector<uint64_t> rowmajor_keys;
      for (uint32_t dx = 0; dx < w; ++dx) {
        for (uint32_t dy = 0; dy < h; ++dy) {
          hilbert_keys.push_back(XyToIndex(order, {x0 + dx, y0 + dy}));
          rowmajor_keys.push_back(static_cast<uint64_t>(x0 + dx) +
                                  static_cast<uint64_t>(y0 + dy) * n);
        }
      }
      hilbert_total += clusters(hilbert_keys);
      rowmajor_total += clusters(rowmajor_keys);
      ++windows;
    }
  }
  EXPECT_LT(hilbert_total / windows, rowmajor_total / windows);
}

}  // namespace
}  // namespace lbsq::hilbert

#include "hilbert/hilbert.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace lbsq::hilbert {

namespace {

// Rotates/flips a quadrant so the curve orientation is canonical.
void Rot(uint32_t n, uint32_t* x, uint32_t* y, uint32_t rx, uint32_t ry) {
  if (ry == 0) {
    if (rx == 1) {
      *x = n - 1 - *x;
      *y = n - 1 - *y;
    }
    std::swap(*x, *y);
  }
}

}  // namespace

uint64_t XyToIndex(int order, CellXY cell) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(cell.x < n && cell.y < n);
  uint32_t x = cell.x;
  uint32_t y = cell.y;
  uint64_t d = 0;
  for (uint32_t s = n / 2; s > 0; s /= 2) {
    const uint32_t rx = (x & s) > 0 ? 1 : 0;
    const uint32_t ry = (y & s) > 0 ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    Rot(n, &x, &y, rx, ry);
  }
  return d;
}

CellXY IndexToXy(int order, uint64_t index) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(index < (static_cast<uint64_t>(n) * n));
  uint32_t x = 0;
  uint32_t y = 0;
  uint64_t t = index;
  for (uint32_t s = 1; s < n; s *= 2) {
    const uint32_t rx = static_cast<uint32_t>(1 & (t / 2));
    const uint32_t ry = static_cast<uint32_t>(1 & (t ^ rx));
    Rot(s, &x, &y, rx, ry);
    x += s * rx;
    y += s * ry;
    t /= 4;
  }
  return CellXY{x, y};
}

uint64_t MortonXyToIndex(int order, CellXY cell) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(cell.x < n && cell.y < n);
  uint64_t result = 0;
  for (int bit = 0; bit < order; ++bit) {
    result |= static_cast<uint64_t>((cell.x >> bit) & 1u) << (2 * bit);
    result |= static_cast<uint64_t>((cell.y >> bit) & 1u) << (2 * bit + 1);
  }
  return result;
}

CellXY MortonIndexToXy(int order, uint64_t index) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  LBSQ_CHECK(index < (1ull << (2 * order)));
  CellXY cell;
  for (int bit = 0; bit < order; ++bit) {
    cell.x |= static_cast<uint32_t>((index >> (2 * bit)) & 1u) << bit;
    cell.y |= static_cast<uint32_t>((index >> (2 * bit + 1)) & 1u) << bit;
  }
  return cell;
}

HilbertGrid::HilbertGrid(const geom::Rect& world, int order, CurveKind curve)
    : world_(world), order_(order), curve_(curve), cells_(1u << order) {
  LBSQ_CHECK(!world.empty());
  LBSQ_CHECK(order >= 1 && order <= 31);
  cell_w_ = world.width() / static_cast<double>(cells_);
  cell_h_ = world.height() / static_cast<double>(cells_);
  LBSQ_CHECK(cell_w_ > 0.0 && cell_h_ > 0.0);
}

CellXY HilbertGrid::CellOf(geom::Point p) const {
  auto clamp_cell = [this](double v) {
    const int64_t c = static_cast<int64_t>(std::floor(v));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, static_cast<int64_t>(cells_) - 1));
  };
  return CellXY{clamp_cell((p.x - world_.x1) / cell_w_),
                clamp_cell((p.y - world_.y1) / cell_h_)};
}

uint64_t HilbertGrid::ToIndex(CellXY cell) const {
  return curve_ == CurveKind::kHilbert ? XyToIndex(order_, cell)
                                       : MortonXyToIndex(order_, cell);
}

CellXY HilbertGrid::ToXy(uint64_t index) const {
  return curve_ == CurveKind::kHilbert ? IndexToXy(order_, index)
                                       : MortonIndexToXy(order_, index);
}

geom::Rect HilbertGrid::CellRect(uint64_t index) const {
  return CellRect(ToXy(index));
}

geom::Rect HilbertGrid::CellRect(CellXY cell) const {
  const double x = world_.x1 + cell_w_ * static_cast<double>(cell.x);
  const double y = world_.y1 + cell_h_ * static_cast<double>(cell.y);
  return geom::Rect{x, y, x + cell_w_, y + cell_h_};
}

std::vector<IndexRange> HilbertGrid::CoverRect(const geom::Rect& query) const {
  std::vector<IndexRange> ranges;
  CoverRect(query, &ranges);
  return ranges;
}

void HilbertGrid::CoverRect(const geom::Rect& query,
                            std::vector<IndexRange>* out) const {
  LBSQ_CHECK(out != nullptr);
  out->clear();
  const geom::Rect q = query.Intersection(world_);
  if (q.empty()) return;
  CoverBlock(Block{0, 0, order_, 0, 0}, CellOf({q.x1, q.y1}),
             CellOf({q.x2, q.y2}), out);
}

namespace {

// One quadrant of a block in curve order: its offset (in half-sides) from
// the block's lowest cell and the orientation the curve enters it with.
struct Quadrant {
  uint32_t qx;
  uint32_t qy;
  int orientation;
};

// kQuadrants[o][d]: the quadrant with curve digit d inside a Hilbert block
// entered with orientation o. An orientation records the reflections
// XyToIndex has applied to the coordinates by a level: bit 0 = x and y
// swapped, bit 1 = both flipped. The digit and the next orientation follow
// XyToIndex and Rot step for step.
constexpr std::array<std::array<Quadrant, 4>, 4> MakeHilbertQuadrants() {
  std::array<std::array<Quadrant, 4>, 4> table{};
  for (int o = 0; o < 4; ++o) {
    const uint32_t swapped = static_cast<uint32_t>(o & 1);
    const uint32_t flipped = static_cast<uint32_t>(o >> 1);
    for (uint32_t qy = 0; qy < 2; ++qy) {
      for (uint32_t qx = 0; qx < 2; ++qx) {
        const uint32_t rx = (swapped != 0 ? qy : qx) ^ flipped;
        const uint32_t ry = (swapped != 0 ? qx : qy) ^ flipped;
        int next = o;
        if (ry == 0) {
          if (rx == 1) next ^= 2;
          next ^= 1;
        }
        table[static_cast<size_t>(o)][(3 * rx) ^ ry] = Quadrant{qx, qy, next};
      }
    }
  }
  return table;
}
constexpr std::array<std::array<Quadrant, 4>, 4> kHilbertQuadrants =
    MakeHilbertQuadrants();

// Morton digits interleave the bits: d = 2 * y + x, in every block.
constexpr std::array<Quadrant, 4> kMortonQuadrants = {
    Quadrant{0, 0, 0}, Quadrant{1, 0, 0}, Quadrant{0, 1, 0},
    Quadrant{1, 1, 0}};

}  // namespace

void HilbertGrid::CoverBlock(const Block& block, CellXY lo, CellXY hi,
                             std::vector<IndexRange>* out) const {
  const uint32_t last = (1u << block.level) - 1;  // spans [x, x + last]
  if (lo.x <= block.x && block.x + last <= hi.x && lo.y <= block.y &&
      block.y + last <= hi.y) {
    // An aligned block is one curve range: [base, base + 4^level - 1].
    const uint64_t end = block.base + (uint64_t{1} << (2 * block.level)) - 1;
    if (!out->empty() && out->back().hi + 1 == block.base) {
      out->back().hi = end;
    } else {
      out->push_back(IndexRange{block.base, end});
    }
    return;
  }
  // Partly covered, so level >= 1 (a single cell is all or nothing): visit
  // the quadrants the query touches, in curve order.
  const int level = block.level - 1;
  const uint32_t half = 1u << level;
  const std::array<Quadrant, 4>& order =
      curve_ == CurveKind::kHilbert
          ? kHilbertQuadrants[static_cast<size_t>(block.orientation)]
          : kMortonQuadrants;
  for (uint64_t digit = 0; digit < 4; ++digit) {
    const Quadrant& q = order[digit];
    const Block quadrant{block.x + q.qx * half, block.y + q.qy * half, level,
                         block.base + (digit << (2 * level)), q.orientation};
    if (quadrant.x > hi.x || quadrant.y > hi.y ||
        quadrant.x + half - 1 < lo.x || quadrant.y + half - 1 < lo.y) {
      continue;
    }
    CoverBlock(quadrant, lo, hi, out);
  }
}

}  // namespace lbsq::hilbert

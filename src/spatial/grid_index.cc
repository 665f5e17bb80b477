#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kernels/kernels.h"

namespace lbsq::spatial {

GridIndex::GridIndex(const geom::Rect& world, double cell_size)
    : world_(world) {
  LBSQ_CHECK(!world.empty());
  LBSQ_CHECK(cell_size > 0.0);
  const double min_cell_w = world.width() / 1024.0;
  const double min_cell_h = world.height() / 1024.0;
  cell_w_ = std::max(cell_size, min_cell_w);
  cell_h_ = std::max(cell_size, min_cell_h);
  nx_ = std::max(1, static_cast<int>(std::ceil(world.width() / cell_w_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(world.height() / cell_h_)));
  cell_start_.assign(
      static_cast<size_t>(nx_) * static_cast<size_t>(ny_) + 1, 0);
}

int GridIndex::CellX(double x) const {
  const int cx = static_cast<int>(std::floor((x - world_.x1) / cell_w_));
  return std::clamp(cx, 0, nx_ - 1);
}

int GridIndex::CellY(double y) const {
  const int cy = static_cast<int>(std::floor((y - world_.y1) / cell_h_));
  return std::clamp(cy, 0, ny_ - 1);
}

int GridIndex::CellIndex(geom::Point p) const {
  return CellY(p.y) * nx_ + CellX(p.x);
}

GridIndex::CellRange GridIndex::RangeOfDisc(geom::Point center,
                                            double radius) const {
  return CellRange{CellX(center.x - radius), CellX(center.x + radius),
                   CellY(center.y - radius), CellY(center.y + radius)};
}

void GridIndex::Rebuild(const std::vector<geom::Point>& positions) {
  positions_ = positions;
  const size_t n = positions_.size();
  const size_t ncells =
      static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  // Counting sort into the CSR slab: count, prefix-sum, scatter. Scatter in
  // ascending id order keeps each cell's items in insertion order, exactly
  // the per-bucket order the old vector-of-vectors layout produced.
  cell_start_.assign(ncells + 1, 0);
  for (const geom::Point& p : positions_) {
    ++cell_start_[static_cast<size_t>(CellIndex(p)) + 1];
  }
  for (size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  ids_.resize(n);
  xs_.resize(n);
  ys_.resize(n);
  cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  cell_of_.resize(n);
  slot_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const geom::Point p = positions_[i];
    const int cell = CellIndex(p);
    const size_t slot =
        static_cast<size_t>(cell_cursor_[static_cast<size_t>(cell)]++);
    ids_[slot] = static_cast<int64_t>(i);
    xs_[slot] = p.x;
    ys_[slot] = p.y;
    cell_of_[i] = cell;
    slot_of_[i] = static_cast<int64_t>(slot);
  }
}

void GridIndex::ApplyMoves(const std::vector<geom::Point>& positions) {
  const size_t n = positions.size();
  if (n != positions_.size() || cell_of_.size() != n) {
    Rebuild(positions);
    return;
  }
  // Pass 1: stayers are patched in place (one cell hash + two stores; no
  // counting pass, no scatter); cell-crossers are queued for the merge.
  movers_.clear();
  for (size_t i = 0; i < n; ++i) {
    const geom::Point p = positions[i];
    positions_[i] = p;
    const int cell = CellIndex(p);
    if (cell == cell_of_[i]) {
      const size_t slot = static_cast<size_t>(slot_of_[i]);
      xs_[slot] = p.x;
      ys_[slot] = p.y;
    } else {
      movers_.push_back(Mover{static_cast<int64_t>(i), cell_of_[i], cell});
    }
  }
  if (movers_.empty()) return;

  // Dirty cells: every cell a mover left or entered. All other rows are
  // byte-identical to what Rebuild would produce and get block-copied —
  // Rebuild scatters in ascending id order and the merge below preserves it.
  dirty_cells_.clear();
  leavers_.clear();
  arrivers_.clear();
  for (const Mover& m : movers_) {
    dirty_cells_.push_back(m.from);
    dirty_cells_.push_back(m.to);
    leavers_.emplace_back(m.from, m.id);
    arrivers_.emplace_back(m.to, m.id);
    cell_of_[static_cast<size_t>(m.id)] = m.to;
  }
  std::sort(dirty_cells_.begin(), dirty_cells_.end());
  dirty_cells_.erase(std::unique(dirty_cells_.begin(), dirty_cells_.end()),
                     dirty_cells_.end());
  std::sort(leavers_.begin(), leavers_.end());
  std::sort(arrivers_.begin(), arrivers_.end());

  const size_t ncells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  new_start_.resize(ncells + 1);
  new_ids_.resize(n);
  new_xs_.resize(n);
  new_ys_.resize(n);

  // One sweep over the cell range: between consecutive dirty cells every
  // row keeps its size, so the whole span shifts by one constant delta and
  // copies as a single block; a dirty cell re-merges its stayers (already
  // ascending by id) with its arrivers (sorted above).
  size_t li = 0;
  size_t ai = 0;
  size_t out = 0;
  int prev = 0;  // First cell of the pending clean span.
  const auto copy_span = [&](int span_end) {
    const size_t src_lo = static_cast<size_t>(cell_start_[size_t(prev)]);
    const size_t src_hi = static_cast<size_t>(cell_start_[size_t(span_end)]);
    const int64_t delta =
        static_cast<int64_t>(out) - static_cast<int64_t>(src_lo);
    for (int c = prev; c < span_end; ++c) {
      new_start_[static_cast<size_t>(c)] = cell_start_[size_t(c)] + delta;
    }
    std::copy(ids_.begin() + static_cast<ptrdiff_t>(src_lo),
              ids_.begin() + static_cast<ptrdiff_t>(src_hi),
              new_ids_.begin() + static_cast<ptrdiff_t>(out));
    std::copy(xs_.begin() + static_cast<ptrdiff_t>(src_lo),
              xs_.begin() + static_cast<ptrdiff_t>(src_hi),
              new_xs_.begin() + static_cast<ptrdiff_t>(out));
    std::copy(ys_.begin() + static_cast<ptrdiff_t>(src_lo),
              ys_.begin() + static_cast<ptrdiff_t>(src_hi),
              new_ys_.begin() + static_cast<ptrdiff_t>(out));
    if (delta != 0) {
      for (size_t j = out; j < out + (src_hi - src_lo); ++j) {
        slot_of_[static_cast<size_t>(new_ids_[j])] = static_cast<int64_t>(j);
      }
    }
    out += src_hi - src_lo;
  };
  for (const int dc : dirty_cells_) {
    copy_span(dc);
    new_start_[static_cast<size_t>(dc)] = static_cast<int64_t>(out);
    // Merge this cell's stayers with its arrivers, ascending by id.
    size_t p = static_cast<size_t>(cell_start_[size_t(dc)]);
    const size_t p_end = static_cast<size_t>(cell_start_[size_t(dc) + 1]);
    while (p < p_end || (ai < arrivers_.size() && arrivers_[ai].first == dc)) {
      if (p < p_end && li < leavers_.size() && leavers_[li].first == dc &&
          leavers_[li].second == ids_[p]) {
        ++p;
        ++li;
        continue;
      }
      const bool take_arriver =
          ai < arrivers_.size() && arrivers_[ai].first == dc &&
          (p >= p_end || arrivers_[ai].second < ids_[p]);
      if (take_arriver) {
        const int64_t id = arrivers_[ai++].second;
        const geom::Point q = positions_[static_cast<size_t>(id)];
        new_ids_[out] = id;
        new_xs_[out] = q.x;
        new_ys_[out] = q.y;
      } else {
        new_ids_[out] = ids_[p];
        new_xs_[out] = xs_[p];
        new_ys_[out] = ys_[p];
        ++p;
      }
      slot_of_[static_cast<size_t>(new_ids_[out])] =
          static_cast<int64_t>(out);
      ++out;
    }
    prev = dc + 1;
  }
  copy_span(static_cast<int>(ncells));
  new_start_[ncells] = static_cast<int64_t>(n);
  LBSQ_CHECK_EQ(out, n);

  cell_start_.swap(new_start_);
  ids_.swap(new_ids_);
  xs_.swap(new_xs_);
  ys_.swap(new_ys_);
}

void GridIndex::QueryDisc(geom::Point center, double radius,
                          std::vector<int64_t>* out) const {
  const double r2 = radius * radius;
  const auto [cx_lo, cx_hi, cy_lo, cy_hi] = RangeOfDisc(center, radius);
  // The cells of one row are adjacent in the CSR slab, so each row is one
  // contiguous [lo, hi) scan. First pass sizes the output exactly from the
  // bucket populations; second streams the rows through the radius kernel.
  size_t candidates = 0;
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    candidates += static_cast<size_t>(
        cell_start_[row + static_cast<size_t>(cx_hi) + 1] -
        cell_start_[row + static_cast<size_t>(cx_lo)]);
  }
  out->reserve(out->size() + candidates);
  for (int cy = cy_lo; cy <= cy_hi; ++cy) {
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    const size_t lo = static_cast<size_t>(
        cell_start_[row + static_cast<size_t>(cx_lo)]);
    const size_t hi = static_cast<size_t>(
        cell_start_[row + static_cast<size_t>(cx_hi) + 1]);
    kernels::AppendIdsWithinRadius(xs_.data() + lo, ys_.data() + lo,
                                   ids_.data() + lo, hi - lo, center.x,
                                   center.y, r2, out);
  }
}

void GridIndex::QueryDiscMoved(
    geom::Point center, double radius, double slack,
    const std::function<geom::Point(int64_t)>& position,
    MovedScratch* scratch, std::vector<int64_t>* out) const {
  if (slack == 0.0) {
    QueryDisc(center, radius, out);
    return;
  }
  // Ids are packed below the current cell into one sort key.
  constexpr int64_t kIdMask = (int64_t{1} << 32) - 1;
  LBSQ_CHECK(size() <= kIdMask + 1);
  // Whatever lies within `radius` now lay within `radius + slack` when
  // this index was built, so the stale query misses none of them.
  std::vector<int64_t>& keys = scratch->keys;
  keys.clear();
  QueryDisc(center, radius + slack, &keys);

  // QueryDisc's cell test on the current positions. The survivors are
  // compacted in place as (current cell << 32 | id) keys.
  const CellRange range = RangeOfDisc(center, radius);
  scratch->xs.clear();
  scratch->ys.clear();
  size_t kept = 0;
  for (const int64_t id : keys) {
    const geom::Point p = position(id);
    const int cx = CellX(p.x);
    const int cy = CellY(p.y);
    if (cx < range.x_lo || cx > range.x_hi || cy < range.y_lo ||
        cy > range.y_hi) {
      continue;
    }
    keys[kept++] = (static_cast<int64_t>(cy * nx_ + cx) << 32) | id;
    scratch->xs.push_back(p.x);
    scratch->ys.push_back(p.y);
  }

  // QueryDisc's radius test, through the same kernel with the same r², so
  // the boundary decisions are bit-identical at every SIMD tier. Sorting
  // the keys gives QueryDisc's order: row-major cells, ascending ids.
  const size_t begin = out->size();
  kernels::AppendIdsWithinRadius(scratch->xs.data(), scratch->ys.data(),
                                 keys.data(), kept, center.x, center.y,
                                 radius * radius, out);
  const auto first = out->begin() + static_cast<ptrdiff_t>(begin);
  std::sort(first, out->end());
  for (auto it = first; it != out->end(); ++it) *it &= kIdMask;
}

}  // namespace lbsq::spatial

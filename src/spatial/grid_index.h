#ifndef LBSQ_SPATIAL_GRID_INDEX_H_
#define LBSQ_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// Uniform grid over a rectangular world for radius queries on moving
/// points. The simulators use it to find the single-hop peers of a querying
/// mobile host (all hosts within the wireless transmission range), either
/// on a grid that is current (QueryDisc) or on one built a little earlier,
/// with a bound on how far the points have moved since (QueryDiscMoved).

namespace lbsq::spatial {

/// Bucketed uniform grid. Rebuild() is O(n); QueryDisc() touches only the
/// buckets overlapping the disc's MBR. Storage is a CSR-style slab: one
/// contiguous structure-of-arrays block (`ids/xs/ys`) ordered by cell with a
/// per-cell offset table, so a disc query streams each row of overlapped
/// cells through the SIMD radius-select kernel in a single contiguous scan.
class GridIndex {
 public:
  /// Grid over `world` with roughly `cell_size`-sized square cells. The cell
  /// size is clamped so there are at most ~1M cells.
  GridIndex(const geom::Rect& world, double cell_size);

  /// Replaces the content with `positions`; item i gets id i.
  void Rebuild(const std::vector<geom::Point>& positions);

  /// Diff-aware Rebuild for the common case where the same items moved a
  /// little: items that stayed in their cell are updated in place in the
  /// slab (no re-count, no scatter), and only the rows of cells someone
  /// crossed into or out of are re-merged; clean rows are block-copied.
  /// Falls back to Rebuild when the item count changed. The resulting index
  /// is bit-identical to `Rebuild(positions)` — same CSR offsets, same
  /// ascending-id rows — so query results cannot depend on which path built
  /// it.
  void ApplyMoves(const std::vector<geom::Point>& positions);

  /// Appends the ids of all items within distance `radius` of `center`
  /// (closed ball, torus wrap disabled) to `*out`. `*out` is reserved up
  /// front from the overlapped buckets' exact population, so the appends
  /// never reallocate beyond that bound.
  void QueryDisc(geom::Point center, double radius,
                 std::vector<int64_t>* out) const;

  /// Caller-owned buffers of QueryDiscMoved (grow-only). One per thread:
  /// with its own scratch, each thread may query a shared index.
  struct MovedScratch {
    std::vector<int64_t> keys;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  /// QueryDisc over items that moved since this index was built: appends
  /// to `*out` exactly the ids, in exactly the order, that QueryDisc(center,
  /// radius, out) would append on an index rebuilt from the items' current
  /// positions, where `position(id)` is item `id`'s current position.
  /// Precondition: no item moved more than `slack` since the last Rebuild or
  /// ApplyMoves. The candidates are this index's items within
  /// `radius + slack`; one is kept only if its current position passes both
  /// of QueryDisc's tests (its cell lies in the cell range of
  /// `center` +- `radius`, and the radius kernel with `radius * radius`), and
  /// the kept ids are ordered by (current cell, id). With `slack` 0 the
  /// index is current and this is QueryDisc. Thread-safe on a shared index
  /// under one `scratch` per thread.
  void QueryDiscMoved(geom::Point center, double radius, double slack,
                      const std::function<geom::Point(int64_t)>& position,
                      MovedScratch* scratch, std::vector<int64_t>* out) const;

  /// Number of indexed items.
  int64_t size() const { return static_cast<int64_t>(positions_.size()); }

  /// Position of item `id` as of the last Rebuild().
  geom::Point position(int64_t id) const {
    return positions_[static_cast<size_t>(id)];
  }

 private:
  /// Clamped column / row of the cell holding coordinate `x` / `y`.
  int CellX(double x) const;
  int CellY(double y) const;
  int CellIndex(geom::Point p) const;

  /// The clamped cell columns and rows QueryDisc scans for a disc.
  struct CellRange {
    int x_lo;
    int x_hi;
    int y_lo;
    int y_hi;
  };
  CellRange RangeOfDisc(geom::Point center, double radius) const;

  geom::Rect world_;
  int nx_;
  int ny_;
  double cell_w_;
  double cell_h_;
  std::vector<geom::Point> positions_;
  /// CSR offsets: cell c's items live at slab positions
  /// [cell_start_[c], cell_start_[c + 1]), in insertion (ascending id)
  /// order. cell_cursor_ is Rebuild's scatter scratch (grow-only).
  std::vector<int64_t> cell_start_;
  std::vector<int64_t> cell_cursor_;
  /// The SoA slab, ordered by cell.
  std::vector<int64_t> ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  /// Reverse maps maintained by Rebuild/ApplyMoves: item id -> its cell and
  /// its slab slot (what lets ApplyMoves patch in place).
  std::vector<int> cell_of_;
  std::vector<int64_t> slot_of_;

  /// ApplyMoves scratch (grow-only, reused across calls).
  struct Mover {
    int64_t id;
    int from;
    int to;
  };
  std::vector<Mover> movers_;
  std::vector<int> dirty_cells_;
  std::vector<std::pair<int, int64_t>> leavers_;
  std::vector<std::pair<int, int64_t>> arrivers_;
  std::vector<int64_t> new_start_;
  std::vector<int64_t> new_ids_;
  std::vector<double> new_xs_;
  std::vector<double> new_ys_;
};

}  // namespace lbsq::spatial

#endif  // LBSQ_SPATIAL_GRID_INDEX_H_

#ifndef LBSQ_BROADCAST_AIR_INDEX_H_
#define LBSQ_BROADCAST_AIR_INDEX_H_

#include <cstdint>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/packet.h"
#include "geom/point.h"
#include "hilbert/hilbert.h"

/// \file
/// The air index: a flat directory, broadcast as part of every index
/// segment, mapping each object's Hilbert index to the data bucket that
/// carries it. A client that has read one index segment can compute the
/// arrival slot of any data bucket and an approximate position (the Hilbert
/// cell center) for every object.

namespace lbsq::broadcast {

/// Grow-only buffers for AirIndex::KthDistanceUpperBound: the cover of the
/// current search square and the cell-center distances of the entries in it.
struct KthBoundScratch {
  std::vector<hilbert::IndexRange> cover;
  std::vector<double> distances;
};

/// Immutable air-index directory built from the bucketized data file. Both
/// the entries and the per-bucket curve ranges ascend along the curve, so
/// every lookup below is a binary search, never a scan of the directory.
class AirIndex {
 public:
  /// One directory entry per object.
  struct Entry {
    uint64_t hilbert = 0;
    int64_t bucket = 0;
  };

  /// Builds the directory for `buckets` on `grid`; the serialized index
  /// occupies ceil(entries / entries_per_bucket) index buckets.
  AirIndex(const std::vector<DataBucket>& buckets,
           const hilbert::HilbertGrid& grid, int entries_per_bucket);

  /// Reassembles the directory from precomputed parts — the incremental
  /// patch path, which copies every clean bucket's entry run and center row
  /// from the previous epoch's index. The parts must be exactly what the
  /// building constructor would produce for the same data file (the sorted-
  /// entries and sorted-ranges contracts are still checked).
  AirIndex(std::vector<Entry> entries,
           std::vector<hilbert::IndexRange> bucket_ranges,
           std::vector<double> center_xs, std::vector<double> center_ys,
           double half_cell_diagonal, const hilbert::HilbertGrid& grid,
           int entries_per_bucket);

  /// All entries, sorted by (hilbert, bucket).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Per bucket: the covered curve range [hilbert_lo, hilbert_hi]; both
  /// ends ascend with the bucket id.
  const std::vector<hilbert::IndexRange>& bucket_ranges() const {
    return bucket_ranges_;
  }

  /// The SoA cell-center columns, parallel to entries() (the incremental
  /// patch path copies clean rows from these; also handy for tests).
  const std::vector<double>& center_xs() const { return center_xs_; }
  const std::vector<double>& center_ys() const { return center_ys_; }
  /// Half a grid-cell diagonal (the KthDistanceUpperBound slack term).
  double half_cell_diagonal() const { return half_cell_diagonal_; }

  /// Size of the serialized index in buckets (>= 1).
  int64_t SizeInBuckets() const;

  /// Upper bound on the distance from `q` to its k-th nearest object,
  /// derived from the index alone: the k-th smallest cell-center distance
  /// plus half a cell diagonal. This is how the on-air kNN derives its
  /// search circle before any data bucket arrives. Returns +infinity when
  /// the index holds fewer than k entries.
  ///
  /// Only the entries near q are read: a square around q grows until the
  /// k-th smallest distance among the entries in its cover is no larger
  /// than its half-side, at which point every entry that close lies in the
  /// square and the value equals a scan of the whole directory, bit for bit.
  /// Once the square holds the world, or when q is not finite, the whole
  /// directory is scanned, so the call ends for any q (NaN q gives NaN).
  double KthDistanceUpperBound(geom::Point q, int k) const;

  /// KthDistanceUpperBound using `*scratch` (cleared and refilled; capacity
  /// is reused across calls).
  double KthDistanceUpperBound(geom::Point q, int k,
                               KthBoundScratch* scratch) const;

  /// The ids of the buckets whose Hilbert range intersects [lo, hi]: one
  /// interval, empty when no bucket does. Two binary searches.
  BucketInterval BucketsForSpan(uint64_t lo, uint64_t hi) const;

  /// Appends to `*out` the ids of the buckets whose Hilbert range
  /// intersects any of `ranges` (sorted ascending ranges as produced by
  /// HilbertGrid::CoverRect), as ascending, disjoint, non-empty intervals.
  void BucketsForRanges(const std::vector<hilbert::IndexRange>& ranges,
                        std::vector<BucketInterval>* out) const;

 private:
  const hilbert::HilbertGrid* grid_;
  int entries_per_bucket_;
  std::vector<Entry> entries_;
  // Per bucket: [hilbert_lo, hilbert_hi]; both ends ascend with the id.
  std::vector<hilbert::IndexRange> bucket_ranges_;
  // Entry cell centers, transposed entry-for-entry into SoA columns at build
  // time so KthDistanceUpperBound runs the distance-batch kernel over the
  // entry runs of its cover instead of a Hilbert decode per entry.
  std::vector<double> center_xs_;
  std::vector<double> center_ys_;
  double half_cell_diagonal_ = 0.0;
};

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_AIR_INDEX_H_

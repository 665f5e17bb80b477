#ifndef LBSQ_KERNELS_KERNELS_H_
#define LBSQ_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/dispatch.h"

/// \file
/// Vectorized kernels over structure-of-arrays point slabs (see poi_slab.h).
/// Each kernel exists in a scalar reference implementation plus SSE2/AVX2
/// variants selected at startup (dispatch.h); all tiers are bit-identical by
/// construction. The free functions at the bottom dispatch through the
/// active tier's table; `OpsForTier` exposes a specific tier for the
/// differential tests and micro-benchmarks.
///
/// Determinism contract (enforced by tests/kernels_test.cc):
///  - distances are per-element `sqrt(dx*dx + dy*dy)` — no FMA contraction
///    (the kernel translation units compile with -ffp-contract=off and the
///    SIMD variants use explicit mul/add intrinsics), no reassociated
///    reductions, hardware `sqrt` (IEEE-correctly rounded, so identical to
///    `std::sqrt`);
///  - selections preserve input order and use closed predicates (`<=`),
///    matching `geom::Rect::Contains` / disc membership exactly;
///  - k-smallest orders by `(distance, id)` lexicographically — the
///    `PoiDistance` tie-break — and on fully equal keys keeps the earliest
///    input index, independent of tier.
///
/// Preconditions: coordinates and distances are finite (no NaN ordering
/// traps); selection index outputs use uint32_t, so slabs are capped at
/// 2^32 elements.

namespace lbsq::kernels {

/// Function-pointer table for one instruction-set tier.
struct KernelOps {
  /// out[i] = sqrt((xs[i]-qx)^2 + (ys[i]-qy)^2).
  void (*distance_batch)(const double* xs, const double* ys, size_t n,
                         double qx, double qy, double* out);

  /// Appends ids[i] (ascending i) with (xs[i]-cx)^2 + (ys[i]-cy)^2 <= r2 to
  /// `*out`; returns the number appended.
  size_t (*append_ids_within_radius)(const double* xs, const double* ys,
                                     const int64_t* ids, size_t n, double cx,
                                     double cy, double r2,
                                     std::vector<int64_t>* out);

  /// Writes the indices i (ascending) with x1 <= xs[i] <= x2 and
  /// y1 <= ys[i] <= y2 to idx_out (capacity >= n); returns the count.
  size_t (*select_in_window)(const double* xs, const double* ys, size_t n,
                             double x1, double y1, double x2, double y2,
                             uint32_t* idx_out);

  /// Selects the min(k, n) smallest elements by (dist[i], ids[i])
  /// lexicographic order and writes their indices, sorted by that same
  /// order, to idx_out (capacity >= k). Returns the count.
  size_t (*k_smallest)(const double* dist, const int64_t* ids, size_t n,
                       size_t k, uint32_t* idx_out);

  /// True when v is strictly increasing (sorted with no duplicates).
  bool (*is_sorted_unique_i64)(const int64_t* v, size_t n);
};

/// The active tier's table (resolved on first use; see dispatch.h).
const KernelOps& Ops();

/// A specific tier's table. Requesting a tier that is not compiled in (or
/// not runnable on this CPU) returns the scalar table.
const KernelOps& OpsForTier(SimdTier tier);

// --- Dispatching wrappers -------------------------------------------------

inline void DistanceBatch(const double* xs, const double* ys, size_t n,
                          double qx, double qy, double* out) {
  Ops().distance_batch(xs, ys, n, qx, qy, out);
}

inline size_t AppendIdsWithinRadius(const double* xs, const double* ys,
                                    const int64_t* ids, size_t n, double cx,
                                    double cy, double r2,
                                    std::vector<int64_t>* out) {
  return Ops().append_ids_within_radius(xs, ys, ids, n, cx, cy, r2, out);
}

inline size_t SelectInWindow(const double* xs, const double* ys, size_t n,
                             double x1, double y1, double x2, double y2,
                             uint32_t* idx_out) {
  return Ops().select_in_window(xs, ys, n, x1, y1, x2, y2, idx_out);
}

inline size_t KSmallest(const double* dist, const int64_t* ids, size_t n,
                        size_t k, uint32_t* idx_out) {
  return Ops().k_smallest(dist, ids, n, k, idx_out);
}

inline bool IsSortedUniqueI64(const int64_t* v, size_t n) {
  return Ops().is_sorted_unique_i64(v, n);
}

namespace internal {

// Per-tier tables (kernels_{scalar,sse2,avx2}.cc). On non-x86 builds the
// SIMD tables alias the scalar implementations.
extern const KernelOps kScalarOps;
extern const KernelOps kSse2Ops;
extern const KernelOps kAvx2Ops;

// Shared by the scalar table and the SIMD tails: the exact per-element
// reference semantics every tier must reproduce bit-for-bit.
void DistanceBatchScalar(const double* xs, const double* ys, size_t n,
                         double qx, double qy, double* out);
size_t AppendIdsWithinRadiusScalar(const double* xs, const double* ys,
                                   const int64_t* ids, size_t n, double cx,
                                   double cy, double r2,
                                   std::vector<int64_t>* out);
size_t SelectInWindowScalar(const double* xs, const double* ys, size_t n,
                            double x1, double y1, double x2, double y2,
                            uint32_t* idx_out);
size_t KSmallestScalar(const double* dist, const int64_t* ids, size_t n,
                       size_t k, uint32_t* idx_out);
bool IsSortedUniqueI64Scalar(const int64_t* v, size_t n);

// Bounded-insertion step shared by every k_smallest tier: offers element i
// to the current selection idx_out[0..*filled) (sorted by (dist, id)).
// Returns the new worst selected element's distance (the SIMD prefilter
// threshold), or +inf while the selection is not yet full.
double KSmallestOffer(const double* dist, const int64_t* ids, size_t k,
                      uint32_t* idx_out, size_t* filled, size_t i);

}  // namespace internal

}  // namespace lbsq::kernels

#endif  // LBSQ_KERNELS_KERNELS_H_

// SSE2 (2-lane double) kernel variants. Every lane performs exactly the
// scalar reference's per-element operations — subtract, two multiplies, one
// add, IEEE-correctly-rounded sqrtpd — so results are bit-identical to
// kernels_scalar.cc; tails shorter than a vector run the scalar reference.
//
// The 64-bit integer kernels stay scalar at this tier: SSE2 has no packed
// 64-bit compare (pcmpgtq is SSE4.2).

#include "kernels/kernels.h"

#if LBSQ_KERNELS_X86 && defined(__SSE2__)

#include <emmintrin.h>

#include <limits>

namespace lbsq::kernels::internal {

namespace {

void DistanceBatchSse2(const double* xs, const double* ys, size_t n,
                       double qx, double qy, double* out) {
  const __m128d qxv = _mm_set1_pd(qx);
  const __m128d qyv = _mm_set1_pd(qy);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), qxv);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), qyv);
    const __m128d d2 =
        _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    _mm_storeu_pd(out + i, _mm_sqrt_pd(d2));
  }
  DistanceBatchScalar(xs + i, ys + i, n - i, qx, qy, out + i);
}

size_t AppendIdsWithinRadiusSse2(const double* xs, const double* ys,
                                 const int64_t* ids, size_t n, double cx,
                                 double cy, double r2,
                                 std::vector<int64_t>* out) {
  const __m128d cxv = _mm_set1_pd(cx);
  const __m128d cyv = _mm_set1_pd(cy);
  const __m128d r2v = _mm_set1_pd(r2);
  size_t appended = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), cxv);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), cyv);
    const __m128d d2 =
        _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    int mask = _mm_movemask_pd(_mm_cmple_pd(d2, r2v));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out->push_back(ids[i + static_cast<size_t>(lane)]);
      ++appended;
      mask &= mask - 1;
    }
  }
  appended +=
      AppendIdsWithinRadiusScalar(xs + i, ys + i, ids + i, n - i, cx, cy, r2,
                                  out);
  return appended;
}

size_t SelectInWindowSse2(const double* xs, const double* ys, size_t n,
                          double x1, double y1, double x2, double y2,
                          uint32_t* idx_out) {
  const __m128d x1v = _mm_set1_pd(x1);
  const __m128d y1v = _mm_set1_pd(y1);
  const __m128d x2v = _mm_set1_pd(x2);
  const __m128d y2v = _mm_set1_pd(y2);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(xs + i);
    const __m128d y = _mm_loadu_pd(ys + i);
    const __m128d in_x = _mm_and_pd(_mm_cmpge_pd(x, x1v),
                                    _mm_cmple_pd(x, x2v));
    const __m128d in_y = _mm_and_pd(_mm_cmpge_pd(y, y1v),
                                    _mm_cmple_pd(y, y2v));
    int mask = _mm_movemask_pd(_mm_and_pd(in_x, in_y));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      idx_out[count++] = static_cast<uint32_t>(i + static_cast<size_t>(lane));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (xs[i] >= x1 && xs[i] <= x2 && ys[i] >= y1 && ys[i] <= y2) {
      idx_out[count++] = static_cast<uint32_t>(i);
    }
  }
  return count;
}

size_t KSmallestSse2(const double* dist, const int64_t* ids, size_t n,
                     size_t k, uint32_t* idx_out) {
  if (k == 0) return 0;
  size_t filled = 0;
  double worst = std::numeric_limits<double>::infinity();
  size_t i = 0;
  // Everything is accepted until the selection fills, so start scalar.
  for (; i < n && filled < k; ++i) {
    if (dist[i] > worst) continue;
    worst = KSmallestOffer(dist, ids, k, idx_out, &filled, i);
  }
  for (; i + 2 <= n; i += 2) {
    // Conservative prefilter: lanes with dist <= current worst may belong in
    // the selection (ties resolve by id inside the exact offer); the rest
    // cannot. `worst` only shrinks, so a stale threshold within the block
    // admits extra lanes but never drops one.
    const __m128d d = _mm_loadu_pd(dist + i);
    int mask = _mm_movemask_pd(_mm_cmple_pd(d, _mm_set1_pd(worst)));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      worst = KSmallestOffer(dist, ids, k, idx_out, &filled,
                             i + static_cast<size_t>(lane));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (dist[i] > worst) continue;
    worst = KSmallestOffer(dist, ids, k, idx_out, &filled, i);
  }
  return filled;
}

}  // namespace

const KernelOps kSse2Ops = {
    DistanceBatchSse2,  AppendIdsWithinRadiusSse2,
    SelectInWindowSse2, KSmallestSse2,
    IsSortedUniqueI64Scalar,
};

}  // namespace lbsq::kernels::internal

#else  // !LBSQ_KERNELS_X86 || !__SSE2__

namespace lbsq::kernels::internal {

// SSE2 not compiled in (non-x86 build): the tier aliases the scalar
// reference.
const KernelOps kSse2Ops = {
    DistanceBatchScalar,  AppendIdsWithinRadiusScalar,
    SelectInWindowScalar, KSmallestScalar,
    IsSortedUniqueI64Scalar,
};

}  // namespace lbsq::kernels::internal

#endif  // LBSQ_KERNELS_X86 && __SSE2__

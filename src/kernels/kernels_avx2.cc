// AVX2 (4-lane double) kernel variants. Compiled with -mavx2 but NOT -mfma
// and with -ffp-contract=off: each lane performs exactly the scalar
// reference's subtract / two multiplies / add / correctly-rounded sqrt, so
// results are bit-identical to kernels_scalar.cc at any input. Tails
// shorter than a vector run the scalar reference.

#include "kernels/kernels.h"

#if LBSQ_KERNELS_X86 && defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace lbsq::kernels::internal {

namespace {

void DistanceBatchAvx2(const double* xs, const double* ys, size_t n,
                       double qx, double qy, double* out) {
  const __m256d qxv = _mm256_set1_pd(qx);
  const __m256d qyv = _mm256_set1_pd(qy);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), qxv);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), qyv);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(d2));
  }
  DistanceBatchScalar(xs + i, ys + i, n - i, qx, qy, out + i);
}

size_t AppendIdsWithinRadiusAvx2(const double* xs, const double* ys,
                                 const int64_t* ids, size_t n, double cx,
                                 double cy, double r2,
                                 std::vector<int64_t>* out) {
  const __m256d cxv = _mm256_set1_pd(cx);
  const __m256d cyv = _mm256_set1_pd(cy);
  const __m256d r2v = _mm256_set1_pd(r2);
  size_t appended = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), cxv);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), cyv);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, r2v, _CMP_LE_OQ));
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

size_t SelectInWindowAvx2(const double* xs, const double* ys, size_t n,
                          double x1, double y1, double x2, double y2,
                          uint32_t* idx_out) {
  const __m256d x1v = _mm256_set1_pd(x1);
  const __m256d y1v = _mm256_set1_pd(y1);
  const __m256d x2v = _mm256_set1_pd(x2);
  const __m256d y2v = _mm256_set1_pd(y2);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    const __m256d y = _mm256_loadu_pd(ys + i);
    const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(x, x1v, _CMP_GE_OQ),
                                       _mm256_cmp_pd(x, x2v, _CMP_LE_OQ));
    const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(y, y1v, _CMP_GE_OQ),
                                       _mm256_cmp_pd(y, y2v, _CMP_LE_OQ));
    int mask = _mm256_movemask_pd(_mm256_and_pd(in_x, in_y));
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

size_t KSmallestAvx2(const double* dist, const int64_t* ids, size_t n,
                     size_t k, uint32_t* idx_out) {
  if (k == 0) return 0;
  size_t filled = 0;
  double worst = std::numeric_limits<double>::infinity();
  size_t i = 0;
  for (; i < n && filled < k; ++i) {
    if (dist[i] > worst) continue;
    worst = KSmallestOffer(dist, ids, k, idx_out, &filled, i);
  }
  for (; i + 4 <= n; i += 4) {
    // Conservative prefilter (see kernels_sse2.cc): the exact (distance, id)
    // decision is made inside KSmallestOffer, so admitting a lane with a
    // stale `worst` cannot change the selected set.
    const __m256d d = _mm256_loadu_pd(dist + i);
    int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(d, _mm256_set1_pd(worst),
                                         _CMP_LE_OQ));
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

bool IsSortedUniqueI64Avx2(const int64_t* v, size_t n) {
  size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i prev = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + i - 1));
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i gt = _mm256_cmpgt_epi64(cur, prev);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(gt)) != 0xF) return false;
  }
  for (; i < n; ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

}  // namespace

const KernelOps kAvx2Ops = {
    DistanceBatchAvx2,  AppendIdsWithinRadiusAvx2,
    SelectInWindowAvx2, KSmallestAvx2,
    IsSortedUniqueI64Avx2,
};

}  // namespace lbsq::kernels::internal

#else  // !LBSQ_KERNELS_X86 || !__AVX2__

namespace lbsq::kernels::internal {

// AVX2 not compiled in (non-x86, or a compiler without -mavx2): the tier
// aliases the scalar reference.
const KernelOps kAvx2Ops = {
    DistanceBatchScalar,  AppendIdsWithinRadiusScalar,
    SelectInWindowScalar, KSmallestScalar,
    IsSortedUniqueI64Scalar,
};

}  // namespace lbsq::kernels::internal

#endif  // LBSQ_KERNELS_X86 && __AVX2__

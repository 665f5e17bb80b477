// Scalar reference implementations: the semantics every SIMD tier must
// reproduce bit-for-bit. Compiled with -ffp-contract=off so the compiler
// cannot fuse dx*dx + dy*dy into an FMA the vector variants don't perform.

#include <cmath>
#include <limits>

#include "kernels/kernels.h"

namespace lbsq::kernels::internal {

void DistanceBatchScalar(const double* xs, const double* ys, size_t n,
                         double qx, double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - qx;
    const double dy = ys[i] - qy;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

size_t AppendIdsWithinRadiusScalar(const double* xs, const double* ys,
                                   const int64_t* ids, size_t n, double cx,
                                   double cy, double r2,
                                   std::vector<int64_t>* out) {
  size_t appended = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - cx;
    const double dy = ys[i] - cy;
    if (dx * dx + dy * dy <= r2) {
      out->push_back(ids[i]);
      ++appended;
    }
  }
  return appended;
}

size_t SelectInWindowScalar(const double* xs, const double* ys, size_t n,
                            double x1, double y1, double x2, double y2,
                            uint32_t* idx_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (xs[i] >= x1 && xs[i] <= x2 && ys[i] >= y1 && ys[i] <= y2) {
      idx_out[count++] = static_cast<uint32_t>(i);
    }
  }
  return count;
}

double KSmallestOffer(const double* dist, const int64_t* ids, size_t k,
                      uint32_t* idx_out, size_t* filled, size_t i) {
  const double d = dist[i];
  const int64_t id = ids[i];
  size_t pos;
  if (*filled == k) {
    const uint32_t w = idx_out[k - 1];
    // Strictly better than the current worst by (distance, id), else keep
    // the incumbent (earliest index wins on fully equal keys).
    if (!(d < dist[w] || (d == dist[w] && id < ids[w]))) return dist[w];
    pos = k - 1;
  } else {
    pos = (*filled)++;
  }
  while (pos > 0) {
    const uint32_t p = idx_out[pos - 1];
    if (dist[p] < d || (dist[p] == d && ids[p] <= id)) break;
    idx_out[pos] = p;
    --pos;
  }
  idx_out[pos] = static_cast<uint32_t>(i);
  return *filled == k ? dist[idx_out[k - 1]]
                      : std::numeric_limits<double>::infinity();
}

size_t KSmallestScalar(const double* dist, const int64_t* ids, size_t n,
                       size_t k, uint32_t* idx_out) {
  if (k == 0) return 0;
  size_t filled = 0;
  double worst = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    // Same conservative prefilter the SIMD tiers apply per lane block; the
    // exact (distance, id) comparison lives in KSmallestOffer.
    if (dist[i] > worst) continue;
    worst = KSmallestOffer(dist, ids, k, idx_out, &filled, i);
  }
  return filled;
}

bool IsSortedUniqueI64Scalar(const int64_t* v, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

const KernelOps kScalarOps = {
    DistanceBatchScalar,  AppendIdsWithinRadiusScalar,
    SelectInWindowScalar, KSmallestScalar,
    IsSortedUniqueI64Scalar,
};

}  // namespace lbsq::kernels::internal

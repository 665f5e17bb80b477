// Why the Hilbert curve? Zheng et al. chose it for its "superior locality";
// the paper inherits that choice. This bench makes the claim measurable by
// running the identical broadcast organization and on-air query workload
// over both linearizations (Hilbert vs Morton/Z-order) and comparing the
// retrieval volumes and latencies, plus the raw cover-fragmentation
// statistics of the two curves.

#include <cstdio>
#include <memory>

#include "broadcast/system.h"
#include "common/rng.h"
#include "common/stats.h"
#include "hilbert/hilbert.h"
#include "onair/onair_knn.h"
#include "onair/onair_window.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"

namespace {

using namespace lbsq;

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

void MeasureQueries(hilbert::CurveKind curve) {
  Rng rng(1);
  broadcast::BroadcastParams params;
  params.curve = curve;
  const auto server_ptr =
      storage::SystemBuilder(kWorld, params)
          .BuildSystemFromPois(spatial::GenerateUniformPois(&rng, kWorld, 2750));
  const broadcast::BroadcastSystem& server = *server_ptr;
  RunningStat knn_buckets, knn_latency, win_buckets, win_latency;
  RunningStat win_buckets_part;
  Rng qrng(7);
  for (int i = 0; i < 400; ++i) {
    const geom::Point q{qrng.Uniform(0.0, 20.0), qrng.Uniform(0.0, 20.0)};
    const int64_t now = static_cast<int64_t>(qrng.NextBelow(
        static_cast<uint64_t>(server.schedule().cycle_length())));
    const auto knn = onair::OnAirKnn(server, q, 5, now);
    knn_buckets.Add(static_cast<double>(knn.stats.buckets_read));
    knn_latency.Add(static_cast<double>(knn.stats.access_latency));
    const geom::Rect window = geom::Rect::CenteredSquare(q, 1.73);  // ~3%
    const auto win = onair::OnAirWindow(server, window, now);
    win_buckets.Add(static_cast<double>(win.stats.buckets_read));
    win_latency.Add(static_cast<double>(win.stats.access_latency));
    const auto part = onair::BucketsForWindow(
        server, window, onair::WindowRetrieval::kPartitionedRanges);
    win_buckets_part.Add(static_cast<double>(part.Count()));
  }
  std::printf("%-8s | %11.1f %11.1f | %11.1f %11.1f %12.1f\n",
              curve == hilbert::CurveKind::kHilbert ? "Hilbert" : "Morton",
              knn_buckets.mean(), knn_latency.mean(), win_buckets.mean(),
              win_latency.mean(), win_buckets_part.mean());
}

void MeasureFragmentation(hilbert::CurveKind curve) {
  hilbert::HilbertGrid grid(kWorld, 6, curve);
  Rng rng(11);
  RunningStat fragments, span;
  for (int i = 0; i < 500; ++i) {
    const geom::Point a{rng.Uniform(0.0, 16.0), rng.Uniform(0.0, 16.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(1.0, 4.0),
                           a.y + rng.Uniform(1.0, 4.0)};
    const auto ranges = grid.CoverRect(query);
    if (ranges.empty()) continue;
    fragments.Add(static_cast<double>(ranges.size()));
    span.Add(static_cast<double>(ranges.back().hi - ranges.front().lo + 1));
  }
  std::printf("%-8s | %14.1f %14.1f\n",
              curve == hilbert::CurveKind::kHilbert ? "Hilbert" : "Morton",
              fragments.mean(), span.mean());
}

}  // namespace

int main() {
  std::printf("=== Space-filling-curve ablation: Hilbert vs Morton ===\n");
  std::printf("(2750 POIs, LA density; 400 on-air 5-NN and 3%%-window "
              "queries each)\n\n");
  std::printf("%-8s | %11s %11s | %11s %11s %12s\n", "curve", "kNN bkts",
              "kNN lat", "win bkts", "win lat", "win bkts(p)");
  MeasureQueries(hilbert::CurveKind::kHilbert);
  MeasureQueries(hilbert::CurveKind::kMorton);

  std::printf("\nCover fragmentation of random windows (order-6 grid):\n\n");
  std::printf("%-8s | %14s %14s\n", "curve", "avg fragments", "avg span");
  MeasureFragmentation(hilbert::CurveKind::kHilbert);
  MeasureFragmentation(hilbert::CurveKind::kMorton);

  std::printf("\nHilbert's locality advantage is in *fragmentation* (fewer "
              "contiguous runs per\nwindow), which the partitioned-retrieval "
              "column 'win bkts(p)' and the tuning\ntime it implies benefit "
              "from; hull spans — what the basic single-span client\npays — "
              "are comparable between the curves.\n");
  return 0;
}

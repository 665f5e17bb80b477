#ifndef LBSQ_CORE_QUERY_INTERNAL_H_
#define LBSQ_CORE_QUERY_INTERNAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "common/observability.h"
#include "core/query_workspace.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "core/verified_region.h"
#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// Implementation seam between QueryEngine and the query algorithms. The
/// former public free functions RunSbnn / RunSbwq live here now, in the
/// `internal` namespace, workspace-threaded and writing into caller-owned
/// outcomes: every external consumer goes through `QueryEngine::Execute` /
/// `ExecuteBatch` instead. Not part of the library API — only the engine
/// (and its white-box tests) may include this header.

namespace lbsq::fault {
class ChannelSession;
}  // namespace lbsq::fault

namespace lbsq::core::internal {

/// Algorithm 2 (SBNN). Resets `*outcome` for `options.k` and fills it;
/// scratch comes from `workspace`. Bit-identical for any workspace state.
/// `per_bucket` (set when any fault is enabled) assembles the answer from
/// every retrieved bucket; otherwise only the buckets of the search
/// region's cover are read. A non-null `faults` with its channel enabled
/// retrieves over the faulty channel; otherwise the cost is the closed-form
/// `broadcast::RetrieveBuckets`.
void RunSbnn(geom::Point q, const SbnnOptions& options,
             std::span<const PeerData> peers, double poi_density,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, bool per_bucket,
             fault::ChannelSession* faults, QueryWorkspace& workspace,
             SbnnOutcome* outcome);

/// Algorithm 3 (SBWQ); same contract as RunSbnn above.
void RunSbwq(const geom::Rect& window, const SbwqOptions& options,
             std::span<const PeerData> peers,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, bool per_bucket,
             fault::ChannelSession* faults, QueryWorkspace& workspace,
             SbwqOutcome* outcome);

}  // namespace lbsq::core::internal

#endif  // LBSQ_CORE_QUERY_INTERNAL_H_

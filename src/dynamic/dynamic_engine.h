#ifndef LBSQ_DYNAMIC_DYNAMIC_ENGINE_H_
#define LBSQ_DYNAMIC_DYNAMIC_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/verified_region.h"
#include "dynamic/world_versioner.h"

/// \file
/// Snapshot-isolated query execution over a versioned world. Every Execute
/// pins the newest published epoch for its whole duration — the query sees
/// one consistent POI database, broadcast schedule, and air index even if
/// the builder publishes new epochs mid-flight — and peer data carried in
/// from other epochs is revalidated against the update log (retagged when
/// its region is untouched by the separating batches, rejected as stale
/// otherwise) before the underlying engine consumes it.

namespace lbsq::dynamic {

/// Accounting of one revalidation pass.
struct RevalidationStats {
  /// Cross-epoch regions proven still complete and retagged to the pin.
  int64_t revalidated = 0;
  /// Cross-epoch regions dropped because an update touched them.
  int64_t rejected = 0;
};

/// Revalidates every shared region in `peers` against `pinned_epoch`: a
/// region tagged with a different epoch is kept (and retagged) only when no
/// update in the separating batch interval touched it — otherwise its
/// completeness guarantee (Lemma 3.1's precondition) may be broken and it
/// is removed. Peers left empty are kept (harmless; matches GatherPeers'
/// non-empty filter semantics downstream).
RevalidationStats RevalidatePeerData(const WorldVersioner& versioner,
                                     uint64_t pinned_epoch,
                                     std::vector<core::PeerData>* peers);

/// Single-peer overload.
RevalidationStats RevalidatePeerData(const WorldVersioner& versioner,
                                     uint64_t pinned_epoch,
                                     core::PeerData* peer);

/// The revalidation core, parameterized over the dirtiness oracle so every
/// versioned world (single-channel WorldVersioner, multi-shard ShardedWorld)
/// shares one stale-region policy. `dirty(rect, from_exclusive,
/// to_inclusive)` must mirror UpdateLog::RegionDirtyBetween semantics.
template <typename DirtyFn>
RevalidationStats RevalidatePeerDataWith(const DirtyFn& dirty,
                                         uint64_t pinned_epoch,
                                         core::PeerData* peer) {
  RevalidationStats stats;
  auto stale = [&](core::VerifiedRegion& vr) {
    if (vr.epoch == pinned_epoch) return false;
    const uint64_t lo = std::min(vr.epoch, pinned_epoch);
    const uint64_t hi = std::max(vr.epoch, pinned_epoch);
    if (dirty(vr.region, lo, hi)) {
      ++stats.rejected;
      return true;
    }
    vr.epoch = pinned_epoch;
    ++stats.revalidated;
    return false;
  };
  std::erase_if(peer->regions, stale);
  return stats;
}

template <typename DirtyFn>
RevalidationStats RevalidatePeerDataWith(const DirtyFn& dirty,
                                         uint64_t pinned_epoch,
                                         std::vector<core::PeerData>* peers) {
  RevalidationStats stats;
  for (core::PeerData& peer : *peers) {
    const RevalidationStats one =
        RevalidatePeerDataWith(dirty, pinned_epoch, &peer);
    stats.revalidated += one.revalidated;
    stats.rejected += one.rejected;
  }
  return stats;
}

/// Query facade over a WorldVersioner (the dynamic-world counterpart of
/// core::QueryEngine). Stateless between calls and thread-safe: any number
/// of threads may Execute concurrently, each with its own workspace.
class DynamicQueryEngine {
 public:
  explicit DynamicQueryEngine(const WorldVersioner& versioner)
      : versioner_(versioner) {}

  /// Pins and returns the newest epoch (for callers that drive the epoch's
  /// QueryEngine directly, e.g. to oracle-check against epoch->pois).
  std::shared_ptr<const WorldEpoch> Pin() const { return versioner_.Current(); }

  /// Pins the current epoch, revalidates `peers` against it, and executes
  /// the request on the pinned epoch's engine through `workspace` (whose
  /// scratch serves any epoch).
  ///
  /// `peers` is the host's own mutable peer-knowledge snapshot — the one
  /// place dynamic execution edits: regions invalidated by the separating
  /// update batches are erased in place (the host discards knowledge it now
  /// knows is stale), and the query runs with the survivors as its peer
  /// span. May be null for a peerless query. `request.peers` must be empty;
  /// the span is bound here, after revalidation, so it can never dangle or
  /// reference pre-revalidation state. No per-query heap allocation: the
  /// in-place erase only releases memory.
  ///
  /// Returns the pinned epoch — the world the outcome is consistent with;
  /// its `pois` are the oracle snapshot for this answer. A non-null `stats`
  /// accumulates the revalidation counts.
  std::shared_ptr<const WorldEpoch> Execute(const core::QueryRequest& request,
                                            std::vector<core::PeerData>* peers,
                                            core::QueryWorkspace& workspace,
                                            core::QueryOutcome* outcome,
                                            RevalidationStats* stats =
                                                nullptr) const;

 private:
  const WorldVersioner& versioner_;
};

}  // namespace lbsq::dynamic

#endif  // LBSQ_DYNAMIC_DYNAMIC_ENGINE_H_

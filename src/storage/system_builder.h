#ifndef LBSQ_STORAGE_SYSTEM_BUILDER_H_
#define LBSQ_STORAGE_SYSTEM_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "geom/rect.h"
#include "spatial/poi.h"
#include "storage/storage_manager.h"

/// \file
/// The one vocabulary for constructing broadcast systems. Every driver —
/// simulator, server, benches, examples, the dynamic-world versioner —
/// builds channels through `SystemBuilder` instead of calling
/// `BroadcastSystem` / `ShardedQueryEngine` constructors directly, so the
/// two dataset sources compose with every deployment shape:
///
///  - `BuildFromPois(pois)` — build from a POI list (today's path).
///  - `OpenFromStore(store)` — reassemble from a persisted page
///    store: decode the CRC-framed bucket wire bytes, the air-index
///    segment, and the shard map; skip the Hilbert sort/bucketization that
///    dominates cold starts. The result is *state-identical* to the
///    equivalent BuildFromPois — same POIs in the same order, same
///    buckets, same index, same schedule — so answer digests are
///    bit-identical by construction (system_store_test diffs them on the
///    Table-3 LA workload).
///
/// `WriteStore` persists a built engine into any `IStorageManager` and
/// publishes it (a file store replaces its path only once the whole store
/// is written); the header carries the builder's dataset digest and build
/// parameters, and `OpenFromStore` rejects a store whose header disagrees
/// with the requested deployment (typed `OpenStatus`, no silent
/// wrong-world serving). The open reads every page once, straight from the
/// store, into the engine's own memory; the store is not needed after it.

namespace lbsq::storage {

class SystemBuilder {
 public:
  /// A builder for deployments over `world` with channel organization
  /// `params`. The setters return *this for chaining.
  SystemBuilder(const geom::Rect& world,
                const broadcast::BroadcastParams& params);

  /// Engine options shared by every shard (default: EngineOptions{}).
  SystemBuilder& SetOptions(const core::EngineOptions& options);
  /// Hilbert-range shard count (default 1; >= 1).
  SystemBuilder& SetShards(int shards);
  /// Dataset digest stamped into stores and verified on open (default 0 =
  /// unchecked identity; the tools pass sim::DatasetSpec::Digest()).
  SystemBuilder& SetDatasetTag(uint64_t tag);

  /// Builds the sharded engine from a POI list: partitions into the
  /// configured shard count and builds one broadcast system per non-empty
  /// shard. With 1 shard this is byte-identical to an unsharded system.
  std::unique_ptr<core::ShardedQueryEngine> BuildFromPois(
      std::vector<spatial::Poi> pois) const;

  /// Builds one standalone broadcast channel (no sharding, no engine) —
  /// the examples / dynamic-rebuild path.
  std::unique_ptr<broadcast::BroadcastSystem> BuildSystemFromPois(
      std::vector<spatial::Poi> pois) const;

  /// Diff-aware variant of BuildSystemFromPois: patches `base` with the net
  /// `delta` instead of re-running the global sort (see
  /// broadcast::BroadcastSystem::PatchFrom — the result is bit-identical to
  /// the full build, exactly as OpenFromStore is state-identical). Returns
  /// null when patching does not apply; the caller falls back to
  /// BuildSystemFromPois and counts it. Composes with OpenFromStore: a
  /// system reopened from a store is a valid `base`.
  std::unique_ptr<broadcast::BroadcastSystem> PatchSystemFromBase(
      const broadcast::BroadcastSystem& base, std::vector<spatial::Poi> pois,
      const broadcast::SystemDelta& delta,
      broadcast::PatchStats* stats) const;

  /// Persists every built artifact of `engine` — per-shard POIs, the
  /// CRC-framed bucket wire bytes, the air-index segment bytes, the shard
  /// map — into `store` (which must be freshly created) and stamps the
  /// checksummed header. Flushes, and so publishes, the store; returns
  /// false on an I/O failure.
  bool WriteStore(const core::ShardedQueryEngine& engine,
                  IStorageManager* store) const;

  /// Reassembles an engine from a persisted store. Header validation
  /// happens first: the store's dataset digest must equal the builder's
  /// tag (kDatasetMismatch) and its build parameters must equal the
  /// builder's world + params (kParamsMismatch). Blob decode failures
  /// surface as kBadBlob. Returns null and sets `*status` on failure; kOk
  /// on success.
  std::unique_ptr<core::ShardedQueryEngine> OpenFromStore(
      const IStorageManager& store, OpenStatus* status) const;
  /// The signature with a (null) page-cache argument that the benchmark's
  /// `metro_store` workload calls.
  std::unique_ptr<core::ShardedQueryEngine> OpenFromStore(
      const IStorageManager& store, std::nullptr_t, OpenStatus* status) const {
    return OpenFromStore(store, status);
  }

  const geom::Rect& world() const { return world_; }
  const broadcast::BroadcastParams& params() const { return params_; }
  int shards() const { return shards_; }
  uint64_t dataset_tag() const { return dataset_tag_; }

 private:
  geom::Rect world_;
  broadcast::BroadcastParams params_;
  core::EngineOptions options_;
  int shards_ = 1;
  uint64_t dataset_tag_ = 0;
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_SYSTEM_BUILDER_H_

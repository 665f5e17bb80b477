#include "storage/system_builder.h"

#include <utility>

#include "broadcast/wire.h"
#include "common/check.h"
#include "hilbert/hilbert.h"
#include "hilbert/partition.h"

namespace lbsq::storage {

namespace {

/// Catalog blob kinds.
enum BlobKind : uint8_t {
  kBlobShardMap = 0,
  kBlobPois = 1,
  kBlobBuckets = 2,
  kBlobIndex = 3,
};

struct CatalogEntry {
  uint8_t kind = 0;
  uint32_t shard = 0;
  BlobRef ref;
};

uint64_t EncodePageId(int64_t page) {
  return static_cast<uint64_t>(page + 1);
}
int64_t DecodePageId(uint64_t raw) { return static_cast<int64_t>(raw) - 1; }

std::vector<uint8_t> EncodePois(const std::vector<spatial::Poi>& pois) {
  broadcast::ByteWriter writer;
  writer.PutVarint(pois.size());
  for (const spatial::Poi& poi : pois) {
    writer.PutVarint(static_cast<uint64_t>(poi.id));
    writer.PutDouble(poi.pos.x);
    writer.PutDouble(poi.pos.y);
  }
  return writer.bytes();
}

bool DecodePois(const std::vector<uint8_t>& bytes,
                std::vector<spatial::Poi>* out) {
  broadcast::ByteReader reader(bytes.data(), bytes.size());
  const uint64_t count = reader.GetVarint();
  // A POI takes at least a one-byte id and two doubles.
  if (!reader.ok() || count > reader.remaining() / 17) return false;
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    spatial::Poi poi;
    poi.id = static_cast<int64_t>(reader.GetVarint());
    poi.pos.x = reader.GetDouble();
    poi.pos.y = reader.GetDouble();
    if (!reader.ok()) return false;
    out->push_back(poi);
  }
  return reader.remaining() == 0;
}

/// The bucket blob is the data file verbatim: each bucket's CRC-framed wire
/// bytes, length-prefixed — exactly what the channel transmits.
std::vector<uint8_t> EncodeBuckets(
    const std::vector<broadcast::DataBucket>& buckets) {
  broadcast::ByteWriter writer;
  writer.PutVarint(buckets.size());
  for (const broadcast::DataBucket& bucket : buckets) {
    const std::vector<uint8_t> frame = broadcast::EncodeBucketFramed(bucket);
    writer.PutVarint(frame.size());
    writer.PutBytes(frame.data(), frame.size());
  }
  return writer.bytes();
}

bool DecodeBuckets(const std::vector<uint8_t>& bytes, uint64_t expected_epoch,
                   std::vector<broadcast::DataBucket>* out) {
  broadcast::ByteReader reader(bytes.data(), bytes.size());
  const uint64_t count = reader.GetVarint();
  // A bucket takes at least a one-byte length, its MBR's four doubles and
  // its CRC trailer.
  if (!reader.ok() || count > reader.remaining() / 37) return false;
  out->clear();
  out->reserve(count);
  size_t offset = bytes.size() - reader.remaining();
  for (uint64_t i = 0; i < count; ++i) {
    broadcast::ByteReader len_reader(bytes.data() + offset,
                                     bytes.size() - offset);
    const uint64_t frame_len = len_reader.GetVarint();
    if (!len_reader.ok() || frame_len > len_reader.remaining()) return false;
    offset = bytes.size() - len_reader.remaining();
    broadcast::DataBucket bucket;
    if (!broadcast::DecodeBucketFramed(bytes.data() + offset,
                                       static_cast<size_t>(frame_len),
                                       &bucket)) {
      return false;
    }
    // The data file is positional: bucket i of the store is bucket i of the
    // channel, at the epoch the header declares.
    if (bucket.id != static_cast<int64_t>(i)) return false;
    if (bucket.epoch != expected_epoch) return false;
    offset += static_cast<size_t>(frame_len);
    out->push_back(std::move(bucket));
  }
  return offset == bytes.size();
}

std::vector<uint8_t> EncodeShardMap(const hilbert::ShardMap& map) {
  broadcast::ByteWriter writer;
  writer.PutVarint(map.num_cells());
  writer.PutVarint(static_cast<uint64_t>(map.num_shards()));
  for (int s = 0; s < map.num_shards(); ++s) {
    writer.PutVarint(map.RangeOf(s).hi + 1);
  }
  return writer.bytes();
}

bool DecodeShardMap(const std::vector<uint8_t>& bytes, uint64_t* num_cells,
                    std::vector<uint64_t>* bounds) {
  broadcast::ByteReader reader(bytes.data(), bytes.size());
  *num_cells = reader.GetVarint();
  const uint64_t num_shards = reader.GetVarint();
  if (!reader.ok() || num_shards > reader.remaining()) return false;
  bounds->clear();
  bounds->reserve(num_shards);
  uint64_t prev = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    const uint64_t bound = reader.GetVarint();
    if (!reader.ok()) return false;
    // ShardMap's own constructor re-checks; failing here keeps a malformed
    // store a typed error instead of an abort.
    if (bound <= prev) return false;
    prev = bound;
    bounds->push_back(bound);
  }
  if (reader.remaining() != 0) return false;
  return !bounds->empty() && bounds->back() == *num_cells;
}

std::vector<uint8_t> EncodeCatalog(const std::vector<CatalogEntry>& entries) {
  broadcast::ByteWriter writer;
  writer.PutVarint(entries.size());
  for (const CatalogEntry& entry : entries) {
    writer.PutU8(entry.kind);
    writer.PutVarint(entry.shard);
    writer.PutVarint(EncodePageId(entry.ref.first_page));
    writer.PutVarint(entry.ref.size);
  }
  return writer.bytes();
}

bool DecodeCatalog(const std::vector<uint8_t>& bytes,
                   std::vector<CatalogEntry>* out) {
  broadcast::ByteReader reader(bytes.data(), bytes.size());
  const uint64_t count = reader.GetVarint();
  // An entry takes at least a kind byte and three one-byte varints.
  if (!reader.ok() || count > reader.remaining() / 4) return false;
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CatalogEntry entry;
    entry.kind = reader.GetU8();
    entry.shard = static_cast<uint32_t>(reader.GetVarint());
    entry.ref.first_page = DecodePageId(reader.GetVarint());
    entry.ref.size = reader.GetVarint();
    if (!reader.ok()) return false;
    out->push_back(entry);
  }
  return reader.remaining() == 0;
}

bool SameRect(const geom::Rect& a, double x1, double y1, double x2,
              double y2) {
  return a.x1 == x1 && a.y1 == y1 && a.x2 == x2 && a.y2 == y2;
}

}  // namespace

SystemBuilder::SystemBuilder(const geom::Rect& world,
                             const broadcast::BroadcastParams& params)
    : world_(world), params_(params) {}

SystemBuilder& SystemBuilder::SetOptions(const core::EngineOptions& options) {
  options_ = options;
  return *this;
}

SystemBuilder& SystemBuilder::SetShards(int shards) {
  LBSQ_CHECK_GE(shards, 1);
  shards_ = shards;
  return *this;
}

SystemBuilder& SystemBuilder::SetDatasetTag(uint64_t tag) {
  dataset_tag_ = tag;
  return *this;
}

std::unique_ptr<core::ShardedQueryEngine> SystemBuilder::BuildFromPois(
    std::vector<spatial::Poi> pois) const {
  return std::make_unique<core::ShardedQueryEngine>(
      std::move(pois), world_, params_, options_, shards_);
}

std::unique_ptr<broadcast::BroadcastSystem> SystemBuilder::BuildSystemFromPois(
    std::vector<spatial::Poi> pois) const {
  return std::make_unique<broadcast::BroadcastSystem>(std::move(pois), world_,
                                                      params_);
}

std::unique_ptr<broadcast::BroadcastSystem> SystemBuilder::PatchSystemFromBase(
    const broadcast::BroadcastSystem& base, std::vector<spatial::Poi> pois,
    const broadcast::SystemDelta& delta, broadcast::PatchStats* stats) const {
  return broadcast::BroadcastSystem::PatchFrom(base, std::move(pois), delta,
                                               params_, stats);
}

bool SystemBuilder::WriteStore(const core::ShardedQueryEngine& engine,
                               IStorageManager* store) const {
  // The store must be freshly created (header page only) and the engine
  // must be the builder's own deployment shape.
  LBSQ_CHECK_EQ(store->page_count(), int64_t{1});
  LBSQ_CHECK_EQ(engine.num_shards(), shards_);
  LBSQ_CHECK(engine.world().x1 == world_.x1 && engine.world().y1 == world_.y1 &&
             engine.world().x2 == world_.x2 && engine.world().y2 == world_.y2);

  std::vector<CatalogEntry> entries;
  {
    const std::vector<uint8_t> bytes = EncodeShardMap(engine.map());
    entries.push_back(
        {kBlobShardMap, 0, WriteBlob(store, bytes.data(), bytes.size())});
  }
  for (int s = 0; s < engine.num_shards(); ++s) {
    const broadcast::BroadcastSystem* system = engine.shard_system(s);
    if (system == nullptr) continue;  // empty shard: no blobs
    const uint32_t shard = static_cast<uint32_t>(s);
    const std::vector<uint8_t> pois = EncodePois(system->pois());
    entries.push_back(
        {kBlobPois, shard, WriteBlob(store, pois.data(), pois.size())});
    const std::vector<uint8_t> buckets = EncodeBuckets(system->buckets());
    entries.push_back(
        {kBlobBuckets, shard, WriteBlob(store, buckets.data(), buckets.size())});
    const std::vector<uint8_t> index = broadcast::EncodeIndexSegmentFramed(
        system->index().entries(), params_.epoch);
    entries.push_back(
        {kBlobIndex, shard, WriteBlob(store, index.data(), index.size())});
  }
  const std::vector<uint8_t> catalog = EncodeCatalog(entries);
  const BlobRef catalog_ref =
      WriteBlob(store, catalog.data(), catalog.size());

  StoreMeta meta;
  meta.dataset_digest = dataset_tag_;
  meta.epoch = params_.epoch;
  meta.shards = static_cast<uint32_t>(shards_);
  meta.world_x1 = world_.x1;
  meta.world_y1 = world_.y1;
  meta.world_x2 = world_.x2;
  meta.world_y2 = world_.y2;
  meta.bucket_capacity = static_cast<uint32_t>(params_.bucket_capacity);
  meta.index_entries_per_bucket =
      static_cast<uint32_t>(params_.index_entries_per_bucket);
  meta.m = static_cast<uint32_t>(params_.m);
  meta.hilbert_order = static_cast<uint32_t>(params_.hilbert_order);
  meta.curve = static_cast<uint8_t>(params_.curve);
  meta.index_kind = static_cast<uint8_t>(params_.index_kind);
  meta.poi_count = engine.total_pois();
  meta.catalog_page = catalog_ref.first_page;
  meta.catalog_size = catalog_ref.size;
  store->set_meta(meta);
  return store->Flush();
}

std::unique_ptr<core::ShardedQueryEngine> SystemBuilder::OpenFromStore(
    const IStorageManager& store, OpenStatus* status) const {
  const StoreMeta& meta = store.meta();
  // Refuse to serve the wrong world: the dataset digest and every build
  // parameter must match the requested deployment exactly.
  if (meta.dataset_digest != dataset_tag_) {
    *status = OpenStatus::kDatasetMismatch;
    return nullptr;
  }
  if (meta.epoch != params_.epoch ||
      meta.shards != static_cast<uint32_t>(shards_) ||
      !SameRect(world_, meta.world_x1, meta.world_y1, meta.world_x2,
                meta.world_y2) ||
      meta.bucket_capacity != static_cast<uint32_t>(params_.bucket_capacity) ||
      meta.index_entries_per_bucket !=
          static_cast<uint32_t>(params_.index_entries_per_bucket) ||
      meta.m != static_cast<uint32_t>(params_.m) ||
      meta.hilbert_order != static_cast<uint32_t>(params_.hilbert_order) ||
      meta.curve != static_cast<uint8_t>(params_.curve) ||
      meta.index_kind != static_cast<uint8_t>(params_.index_kind)) {
    *status = OpenStatus::kParamsMismatch;
    return nullptr;
  }

  *status = OpenStatus::kBadBlob;
  std::vector<uint8_t> bytes;
  if (!ReadBlob(store, {meta.catalog_page, meta.catalog_size}, &bytes)) {
    return nullptr;
  }
  std::vector<CatalogEntry> catalog;
  if (!DecodeCatalog(bytes, &catalog)) return nullptr;

  // Group the catalog by shard; exactly one shard-map blob.
  struct ShardBlobs {
    BlobRef pois, buckets, index;
  };
  std::vector<ShardBlobs> shard_blobs(static_cast<size_t>(shards_));
  BlobRef map_ref;
  for (const CatalogEntry& entry : catalog) {
    if (entry.kind == kBlobShardMap) {
      map_ref = entry.ref;
      continue;
    }
    if (entry.shard >= static_cast<uint32_t>(shards_)) return nullptr;
    ShardBlobs& blobs = shard_blobs[entry.shard];
    switch (entry.kind) {
      case kBlobPois:
        blobs.pois = entry.ref;
        break;
      case kBlobBuckets:
        blobs.buckets = entry.ref;
        break;
      case kBlobIndex:
        blobs.index = entry.ref;
        break;
      default:
        return nullptr;
    }
  }
  if (map_ref.first_page == kInvalidPage) return nullptr;

  if (!ReadBlob(store, map_ref, &bytes)) return nullptr;
  uint64_t num_cells = 0;
  std::vector<uint64_t> bounds;
  if (!DecodeShardMap(bytes, &num_cells, &bounds)) return nullptr;
  const hilbert::HilbertGrid grid(world_, params_.hilbert_order,
                                  params_.curve);
  if (num_cells != grid.num_cells() ||
      bounds.size() != static_cast<size_t>(shards_)) {
    return nullptr;
  }
  hilbert::ShardMap map(num_cells, std::move(bounds));

  std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems(
      static_cast<size_t>(shards_));
  uint64_t total_pois = 0;
  for (int s = 0; s < shards_; ++s) {
    const ShardBlobs& blobs = shard_blobs[static_cast<size_t>(s)];
    if (blobs.pois.first_page == kInvalidPage &&
        blobs.buckets.first_page == kInvalidPage &&
        blobs.index.first_page == kInvalidPage) {
      continue;  // empty shard
    }
    if (blobs.pois.first_page == kInvalidPage ||
        blobs.buckets.first_page == kInvalidPage ||
        blobs.index.first_page == kInvalidPage) {
      return nullptr;  // partial shard record
    }
    std::vector<spatial::Poi> pois;
    if (!ReadBlob(store, blobs.pois, &bytes) ||
        !DecodePois(bytes, &pois)) {
      return nullptr;
    }
    std::vector<broadcast::DataBucket> buckets;
    if (!ReadBlob(store, blobs.buckets, &bytes) ||
        !DecodeBuckets(bytes, meta.epoch, &buckets)) {
      return nullptr;
    }
    size_t bucketized = 0;
    for (const broadcast::DataBucket& bucket : buckets) {
      bucketized += bucket.pois.size();
    }
    if (bucketized != pois.size()) return nullptr;
    std::vector<broadcast::AirIndex::Entry> stored_entries;
    uint64_t index_epoch = 0;
    if (!ReadBlob(store, blobs.index, &bytes) ||
        !broadcast::DecodeIndexSegmentFramed(bytes.data(), bytes.size(),
                                             &stored_entries, &index_epoch) ||
        index_epoch != meta.epoch) {
      return nullptr;
    }
    total_pois += pois.size();
    auto system = std::make_shared<broadcast::BroadcastSystem>(
        std::move(pois), std::move(buckets), world_, params_);
    // The persisted directory must agree with the one rebuilt from the
    // buckets — a full structural cross-check of the store's two views of
    // the data file.
    const std::vector<broadcast::AirIndex::Entry>& rebuilt =
        system->index().entries();
    if (stored_entries.size() != rebuilt.size()) return nullptr;
    for (size_t i = 0; i < rebuilt.size(); ++i) {
      if (stored_entries[i].hilbert != rebuilt[i].hilbert ||
          stored_entries[i].bucket != rebuilt[i].bucket) {
        return nullptr;
      }
    }
    systems[static_cast<size_t>(s)] = std::move(system);
  }
  if (total_pois != meta.poi_count) return nullptr;

  auto engine = std::make_unique<core::ShardedQueryEngine>(
      world_, params_, options_, std::move(map), std::move(systems));
  *status = OpenStatus::kOk;
  return engine;
}

}  // namespace lbsq::storage

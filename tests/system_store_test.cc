// SystemBuilder store round trips: WriteStore / OpenFromStore state
// identity (answer digests over the Table 3 LA workload must be
// bit-identical between a fresh build and a cold open, over both storage
// backends), the typed rejection paths, and crash injection: damaged store
// files and interrupted writers.

#include "storage/system_builder.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/wire.h"
#include "common/rng.h"
#include "sim/metrics.h"
#include "spatial/generators.h"
#include "storage/storage_manager.h"

namespace lbsq::storage {
namespace {

// Table 3, Los Angeles City: 2750 POIs over a 20 x 20 mi world, k = 5,
// 3% windows.
constexpr double kWorldSide = 20.0;
constexpr int kPoiNumber = 2750;
constexpr int kKnnK = 5;
constexpr uint64_t kDatasetTag = 0x1a2b3c4d5e6f7081ull;

const geom::Rect kWorld{0.0, 0.0, kWorldSide, kWorldSide};

std::vector<spatial::Poi> LaPois(uint64_t seed = 1) {
  Rng rng(seed);
  return spatial::GenerateUniformPois(&rng, kWorld, kPoiNumber);
}

SystemBuilder LaBuilder(int shards = 1) {
  SystemBuilder builder(kWorld, broadcast::BroadcastParams{});
  builder.SetShards(shards).SetDatasetTag(kDatasetTag);
  return builder;
}

/// Folds every bit of the answer plane — neighbor ids and distances,
/// window POI sets — plus the cost stats of a deterministic LA query mix
/// into one FNV digest. Two engines share the digest iff they answer the
/// whole workload bit-identically.
uint64_t WorkloadDigest(const core::ShardedQueryEngine& engine) {
  Rng rng(13);
  const double window_side = kWorldSide * std::sqrt(0.03);
  uint64_t acc = 1469598103934665603ull;  // FNV-1a offset basis
  for (int i = 0; i < 300; ++i) {
    const geom::Point q{rng.Uniform(0.0, kWorldSide),
                        rng.Uniform(0.0, kWorldSide)};
    core::QueryRequest request;
    request.slot = static_cast<int64_t>(rng.NextBelow(100000));
    if (i % 2 == 0) {
      request.kind = core::QueryKind::kKnn;
      request.position = q;
      request.k = kKnnK;
      const core::QueryOutcome outcome = engine.Execute(request);
      for (const spatial::PoiDistance& n : outcome.knn->neighbors) {
        acc = sim::DigestFold(acc, static_cast<uint64_t>(n.poi.id));
        acc = sim::DigestFold(acc, std::bit_cast<uint64_t>(n.distance));
      }
      acc = sim::DigestFold(
          acc, static_cast<uint64_t>(outcome.knn->stats.access_latency));
      acc = sim::DigestFold(
          acc, static_cast<uint64_t>(outcome.knn->stats.tuning_time));
    } else {
      request.kind = core::QueryKind::kWindow;
      request.window = geom::Rect::CenteredSquare(q, window_side / 2.0);
      const core::QueryOutcome outcome = engine.Execute(request);
      for (const spatial::Poi& p : outcome.window->pois) {
        acc = sim::DigestFold(acc, static_cast<uint64_t>(p.id));
        acc = sim::DigestFold(acc, std::bit_cast<uint64_t>(p.pos.x));
        acc = sim::DigestFold(acc, std::bit_cast<uint64_t>(p.pos.y));
      }
      acc = sim::DigestFold(
          acc, static_cast<uint64_t>(outcome.window->stats.buckets_read));
    }
  }
  return acc;
}

TEST(SystemStoreTest, MemoryRoundTripIsStateIdentical) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());

  MemoryStorageManager store;
  ASSERT_TRUE(builder.WriteStore(*built, &store));
  EXPECT_EQ(store.meta().dataset_digest, kDatasetTag);
  EXPECT_EQ(store.meta().poi_count, static_cast<uint64_t>(kPoiNumber));

  OpenStatus status = OpenStatus::kIoError;
  const auto opened = builder.OpenFromStore(store, &status);
  ASSERT_NE(opened, nullptr) << OpenStatusName(status);
  EXPECT_EQ(status, OpenStatus::kOk);

  // Structural identity: same POIs in the same order, same channel shape.
  ASSERT_EQ(opened->total_pois(), built->total_pois());
  const broadcast::BroadcastSystem& a = *built->shard_system(0);
  const broadcast::BroadcastSystem& b = *opened->shard_system(0);
  ASSERT_EQ(a.pois().size(), b.pois().size());
  for (size_t i = 0; i < a.pois().size(); ++i) {
    EXPECT_TRUE(a.pois()[i] == b.pois()[i]) << i;
  }
  EXPECT_EQ(a.buckets().size(), b.buckets().size());
  EXPECT_EQ(a.schedule().cycle_length(), b.schedule().cycle_length());

  // Answer identity: the Table 3 workload digests bit-identically.
  EXPECT_EQ(WorkloadDigest(*built), WorkloadDigest(*opened));
}

TEST(SystemStoreTest, ShardedRoundTripIsStateIdentical) {
  const SystemBuilder builder = LaBuilder(/*shards=*/4);
  const auto built = builder.BuildFromPois(LaPois());

  MemoryStorageManager store;
  ASSERT_TRUE(builder.WriteStore(*built, &store));
  OpenStatus status = OpenStatus::kIoError;
  const auto opened = builder.OpenFromStore(store, &status);
  ASSERT_NE(opened, nullptr) << OpenStatusName(status);

  ASSERT_EQ(opened->num_shards(), 4);
  EXPECT_EQ(opened->total_pois(), built->total_pois());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(opened->shard_poi_count(s), built->shard_poi_count(s)) << s;
  }
  EXPECT_EQ(WorkloadDigest(*built), WorkloadDigest(*opened));
}

TEST(SystemStoreTest, FileBackendColdOpen) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "la.lbsq").string();
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  {
    auto store = FileStorageManager::Create(path, kDefaultPageSize);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(builder.WriteStore(*built, store.get()));
  }

  OpenStatus status = OpenStatus::kIoError;
  auto store = FileStorageManager::Open(path, &status);
  ASSERT_NE(store, nullptr) << OpenStatusName(status);
  const auto opened = builder.OpenFromStore(*store, &status);
  ASSERT_NE(opened, nullptr) << OpenStatusName(status);

  EXPECT_EQ(WorkloadDigest(*built), WorkloadDigest(*opened));
}

TEST(SystemStoreTest, RejectsDatasetMismatch) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  MemoryStorageManager store;
  ASSERT_TRUE(builder.WriteStore(*built, &store));

  SystemBuilder other(kWorld, broadcast::BroadcastParams{});
  other.SetDatasetTag(kDatasetTag + 1);
  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(other.OpenFromStore(store, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kDatasetMismatch);
}

TEST(SystemStoreTest, RejectsParamsMismatch) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  MemoryStorageManager store;
  ASSERT_TRUE(builder.WriteStore(*built, &store));
  OpenStatus status = OpenStatus::kOk;

  // Different channel organization (m).
  broadcast::BroadcastParams different_m;
  different_m.m += 1;
  SystemBuilder m_builder(kWorld, different_m);
  m_builder.SetDatasetTag(kDatasetTag);
  EXPECT_EQ(m_builder.OpenFromStore(store, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kParamsMismatch);

  // Different world rectangle.
  SystemBuilder world_builder(geom::Rect{0.0, 0.0, 10.0, 10.0},
                              broadcast::BroadcastParams{});
  world_builder.SetDatasetTag(kDatasetTag);
  EXPECT_EQ(world_builder.OpenFromStore(store, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kParamsMismatch);

  // Different shard count.
  SystemBuilder shard_builder = LaBuilder(/*shards=*/2);
  EXPECT_EQ(shard_builder.OpenFromStore(store, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kParamsMismatch);
}

TEST(SystemStoreTest, RejectsCorruptedBlob) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  MemoryStorageManager store;
  ASSERT_TRUE(builder.WriteStore(*built, &store));

  // Flip the first payload byte of the first blob page (right past the
  // 8-byte chain pointer — inside every blob's live range): its CRC breaks.
  std::vector<uint8_t> page(store.page_size());
  store.ReadPage(1, page.data());
  page[8] ^= 0x01;
  store.WritePage(1, page.data());

  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(builder.OpenFromStore(store, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kBadBlob);
}

/// `blob` with its leading count (after `skip` varints) replaced by `count`.
std::vector<uint8_t> WithLeadingCount(const std::vector<uint8_t>& blob,
                                      int skip, uint64_t count) {
  broadcast::ByteReader reader(blob.data(), blob.size());
  broadcast::ByteWriter writer;
  for (int i = 0; i < skip; ++i) writer.PutVarint(reader.GetVarint());
  reader.GetVarint();
  writer.PutVarint(count);
  const size_t rest = reader.remaining();
  writer.PutBytes(blob.data() + blob.size() - rest, rest);
  return writer.bytes();
}

// A blob whose CRC holds but whose leading count no remaining bytes could
// hold is refused before anything is reserved for that count: the
// catalog, and through it the shard map, a POI blob and a bucket blob.
TEST(SystemStoreTest, BlobCountsBeyondTheirBytesAreRefused) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  constexpr uint64_t kHugeCount = uint64_t{1} << 60;
  // Catalog entries: u8 kind (0 shard map, 1 POIs, 2 buckets, 3 index),
  // then varints shard, first page + 1 and size.
  struct Target {
    int kind;  // -1: the catalog itself
    int skip;  // varints before the count (the shard map leads with cells)
  };
  for (const Target target : {Target{-1, 0}, Target{0, 1}, Target{1, 0},
                              Target{2, 0}}) {
    SCOPED_TRACE("blob kind " + std::to_string(target.kind));
    MemoryStorageManager store;
    ASSERT_TRUE(builder.WriteStore(*built, &store));
    StoreMeta meta = store.meta();
    std::vector<uint8_t> catalog;
    ASSERT_TRUE(ReadBlob(store, {meta.catalog_page, meta.catalog_size},
                         &catalog));
    if (target.kind < 0) {
      catalog = WithLeadingCount(catalog, 0, kHugeCount);
    } else {
      broadcast::ByteReader reader(catalog.data(), catalog.size());
      broadcast::ByteWriter rewritten;
      const uint64_t entries = reader.GetVarint();
      rewritten.PutVarint(entries);
      bool found = false;
      for (uint64_t i = 0; i < entries; ++i) {
        const uint8_t kind = reader.GetU8();
        const uint64_t shard = reader.GetVarint();
        BlobRef ref;
        ref.first_page = static_cast<int64_t>(reader.GetVarint()) - 1;
        ref.size = reader.GetVarint();
        if (kind == target.kind && !found) {
          found = true;
          std::vector<uint8_t> blob;
          ASSERT_TRUE(ReadBlob(store, ref, &blob));
          const std::vector<uint8_t> crafted =
              WithLeadingCount(blob, target.skip, kHugeCount);
          ref = WriteBlob(&store, crafted.data(), crafted.size());
        }
        rewritten.PutU8(kind);
        rewritten.PutVarint(shard);
        rewritten.PutVarint(static_cast<uint64_t>(ref.first_page + 1));
        rewritten.PutVarint(ref.size);
      }
      ASSERT_TRUE(reader.ok());
      ASSERT_TRUE(found);
      catalog = rewritten.bytes();
    }
    const BlobRef catalog_ref =
        WriteBlob(&store, catalog.data(), catalog.size());
    meta.catalog_page = catalog_ref.first_page;
    meta.catalog_size = catalog_ref.size;
    store.set_meta(meta);

    OpenStatus status = OpenStatus::kOk;
    EXPECT_EQ(builder.OpenFromStore(store, &status), nullptr);
    EXPECT_EQ(status, OpenStatus::kBadBlob);
  }
}

// ---------------------------------------------------------------------------
// Crash injection. A file store is published whole or not at all, and a
// damaged store file ends in a typed status, never an abort.

std::vector<uint8_t> ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::filesystem::path& path, const uint8_t* data,
                    size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

/// The sizes a store header declares; every other header field is kept.
struct HeaderSizes {
  uint64_t page_size = 0;
  uint64_t page_count = 0;
  uint64_t catalog_size = 0;
};

/// Rewrites the sizes in the header of the store image `bytes` and
/// recomputes the header CRC, so that only the bounds on those sizes can
/// refuse the result. The header is magic, a u32le payload length, then the
/// payload: version, page size, page count, the fields from the free-list
/// head to the catalog page (kept as they are), the catalog size, and a
/// CRC-32 trailer.
std::vector<uint8_t> WithHeaderSizes(std::vector<uint8_t> bytes,
                                     const HeaderSizes& sizes) {
  constexpr size_t kPrefix = 12;
  uint32_t length = 0;
  std::memcpy(&length, bytes.data() + 8, 4);
  const uint8_t* payload = bytes.data() + kPrefix;
  broadcast::ByteReader reader(payload, length - 4);
  const uint8_t version = reader.GetU8();
  reader.GetVarint();  // page size
  reader.GetVarint();  // page count
  const size_t kept_begin = length - 4 - reader.remaining();
  for (int i = 0; i < 4; ++i) reader.GetVarint();  // free list .. shards
  for (int i = 0; i < 4; ++i) reader.GetDouble();  // world rect
  for (int i = 0; i < 4; ++i) reader.GetVarint();  // bucket geometry
  reader.GetU8();                                  // curve
  reader.GetU8();                                  // index kind
  reader.GetVarint();                              // POI count
  reader.GetVarint();                              // catalog page
  const size_t kept_end = length - 4 - reader.remaining();
  reader.GetVarint();  // catalog size
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);

  broadcast::ByteWriter writer;
  writer.PutU8(version);
  writer.PutVarint(sizes.page_size);
  writer.PutVarint(sizes.page_count);
  writer.PutBytes(payload + kept_begin, kept_end - kept_begin);
  writer.PutVarint(sizes.catalog_size);
  std::vector<uint8_t> header = writer.bytes();
  broadcast::AppendCrc32(&header);
  EXPECT_LE(kPrefix + header.size(), kMinPageSize);
  const uint32_t new_length = static_cast<uint32_t>(header.size());
  std::memcpy(bytes.data() + 8, &new_length, 4);
  std::fill(bytes.begin() + kPrefix, bytes.begin() + kMinPageSize, 0);
  std::memcpy(bytes.data() + kPrefix, header.data(), header.size());
  return bytes;
}

/// Opens the store file at `path` through both layers; `*engine` is set
/// when the result is kOk.
OpenStatus OpenEngine(const SystemBuilder& builder,
                      const std::filesystem::path& path,
                      std::unique_ptr<core::ShardedQueryEngine>* engine) {
  OpenStatus status = OpenStatus::kOk;
  const auto store = FileStorageManager::Open(path.string(), &status);
  if (store == nullptr) return status;
  *engine = builder.OpenFromStore(*store, &status);
  return status;
}

/// Lowers this process's file-size limit to `bytes`, with SIGXFSZ ignored
/// so that a write past it fails with EFBIG instead of killing the
/// process. The destructor restores both.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

/// Each case works in a directory of its own, so it can check that no
/// temporary file is left beside the store.
class StoreCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("store_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> DirEntries() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::filesystem::path dir_;
};

TEST_F(StoreCrashTest, DamagedCopiesEndInTypedStatusOrSameAnswers) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  const uint64_t digest = WorkloadDigest(*built);
  const std::filesystem::path path = dir_ / "la.lbsq";
  {
    auto store = FileStorageManager::Create(path.string(), kDefaultPageSize);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(builder.WriteStore(*built, store.get()));
  }
  // The published file is the finished temporary file, renamed.
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  const size_t page_size = kDefaultPageSize;
  ASSERT_EQ(bytes.size() % page_size, 0u);
  const size_t pages = bytes.size() / page_size;
  ASSERT_GT(pages, 8u);
  const std::filesystem::path copy = dir_ / "copy.lbsq";

  // Cut at every page boundary: the header declares pages that are gone.
  for (size_t page = 0; page < pages; ++page) {
    WriteFileBytes(copy, bytes.data(), page * page_size);
    std::unique_ptr<core::ShardedQueryEngine> engine;
    EXPECT_EQ(OpenEngine(builder, copy, &engine), OpenStatus::kTruncated)
        << "cut after " << page << " pages";
  }

  // One byte flipped per copy, at four offsets of every page: in page 0 the
  // magic, the header length and twice the padding past the CRC'd header;
  // elsewhere the chain pointer, the first payload byte, mid-page and the
  // last byte (payload, or padding on a blob's last page).
  int refused = 0;
  int served = 0;
  for (size_t page = 0; page < pages; ++page) {
    for (const size_t offset :
         {size_t{0}, size_t{8}, page_size / 2, page_size - 1}) {
      std::vector<uint8_t> damaged = bytes;
      damaged[page * page_size + offset] ^= 0xff;
      WriteFileBytes(copy, damaged.data(), damaged.size());
      std::unique_ptr<core::ShardedQueryEngine> engine;
      const OpenStatus status = OpenEngine(builder, copy, &engine);
      if (status != OpenStatus::kOk) {
        ++refused;
        continue;
      }
      // Only a byte no CRC covers can change without a refusal, and it
      // must not change an answer.
      ++served;
      EXPECT_EQ(WorkloadDigest(*engine), digest)
          << "page " << page << " offset " << offset;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(served, 0);
}

// A header with a valid CRC can still declare sizes no store has. Each is
// bounded by the bytes that hold it: the catalog by the store's pages, the
// page count by the file size, and the page size by a stated cap.
TEST_F(StoreCrashTest, ImpossibleHeaderSizesEndInTypedStatus) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  const uint64_t digest = WorkloadDigest(*built);
  const std::filesystem::path path = dir_ / "la.lbsq";
  {
    auto store = FileStorageManager::Create(path.string(), kDefaultPageSize);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(builder.WriteStore(*built, store.get()));
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  HeaderSizes sizes;
  {
    OpenStatus status = OpenStatus::kOk;
    const auto store = FileStorageManager::Open(path.string(), &status);
    ASSERT_NE(store, nullptr);
    sizes.page_size = store->page_size();
    sizes.page_count = static_cast<uint64_t>(store->page_count());
    sizes.catalog_size = store->meta().catalog_size;
  }
  const std::filesystem::path copy = dir_ / "copy.lbsq";
  const auto open_with = [&](const HeaderSizes& crafted) {
    const std::vector<uint8_t> damaged = WithHeaderSizes(bytes, crafted);
    WriteFileBytes(copy, damaged.data(), damaged.size());
    std::unique_ptr<core::ShardedQueryEngine> engine;
    const OpenStatus status = OpenEngine(builder, copy, &engine);
    if (status == OpenStatus::kOk) {
      EXPECT_EQ(WorkloadDigest(*engine), digest);
    }
    return status;
  };

  // The rewrite itself changes nothing.
  EXPECT_EQ(open_with(sizes), OpenStatus::kOk);

  HeaderSizes huge_catalog = sizes;
  huge_catalog.catalog_size = uint64_t{1} << 62;
  EXPECT_EQ(open_with(huge_catalog), OpenStatus::kBadBlob);

  // 2^62 pages of 4 KiB: the product wraps past 2^64.
  HeaderSizes wrapping_count = sizes;
  wrapping_count.page_count = uint64_t{1} << 62;
  EXPECT_EQ(open_with(wrapping_count), OpenStatus::kTruncated);

  HeaderSizes huge_page = sizes;
  huge_page.page_size = uint64_t{1} << 63;
  EXPECT_EQ(open_with(huge_page), OpenStatus::kBadHeaderChecksum);
  huge_page.page_size = kMaxPageSize + 1;
  EXPECT_EQ(open_with(huge_page), OpenStatus::kBadHeaderChecksum);
}

TEST_F(StoreCrashTest, InterruptedWritersLeaveTheLastStore) {
  const SystemBuilder builder = LaBuilder();
  const auto built = builder.BuildFromPois(LaPois());
  const uint64_t digest = WorkloadDigest(*built);
  const std::filesystem::path path = dir_ / "la.lbsq";
  {
    auto first = FileStorageManager::Create(path.string(), kDefaultPageSize);
    ASSERT_NE(first, nullptr);
    ASSERT_TRUE(builder.WriteStore(*built, first.get()));
  }
  const std::vector<uint8_t> published = ReadFileBytes(path);

  // A second writer is destroyed before Flush, as on an early return.
  {
    auto second = FileStorageManager::Create(path.string(), kDefaultPageSize);
    ASSERT_NE(second, nullptr);
    const std::vector<uint8_t> blob(3 * kDefaultPageSize, uint8_t{0x5a});
    WriteBlob(second.get(), blob.data(), blob.size());
    WriteBlob(second.get(), blob.data(), blob.size());
  }
  // A third, writing a different world, runs out of file size mid-write.
  {
    const auto other = builder.BuildFromPois(LaPois(/*seed=*/2));
    auto third = FileStorageManager::Create(path.string(), kDefaultPageSize);
    ASSERT_NE(third, nullptr);
    const FileSizeLimit limit(4 * kDefaultPageSize);
    EXPECT_FALSE(builder.WriteStore(*other, third.get()));
  }

  EXPECT_EQ(ReadFileBytes(path), published);
  std::unique_ptr<core::ShardedQueryEngine> engine;
  ASSERT_EQ(OpenEngine(builder, path, &engine), OpenStatus::kOk);
  EXPECT_EQ(WorkloadDigest(*engine), digest);
  EXPECT_EQ(DirEntries(), std::vector<std::string>{"la.lbsq"});
}

}  // namespace
}  // namespace lbsq::storage

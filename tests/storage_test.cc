#include "storage/storage_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lbsq::storage {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A page filled with a recognizable per-page byte pattern.
std::vector<uint8_t> PatternPage(size_t page_size, int64_t page) {
  std::vector<uint8_t> data(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>((static_cast<size_t>(page) * 131 + i) & 0xff);
  }
  return data;
}

TEST(MemoryStorageManagerTest, RoundTripAndAppendOrder) {
  MemoryStorageManager store(kMinPageSize);
  EXPECT_EQ(store.page_size(), kMinPageSize);
  EXPECT_EQ(store.page_count(), 1);  // page 0 = header

  const int64_t a = store.AllocatePage();
  const int64_t b = store.AllocatePage();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  store.WritePage(a, PatternPage(kMinPageSize, a).data());
  store.WritePage(b, PatternPage(kMinPageSize, b).data());

  std::vector<uint8_t> out(kMinPageSize);
  store.ReadPage(a, out.data());
  EXPECT_EQ(out, PatternPage(kMinPageSize, a));
  store.ReadPage(b, out.data());
  EXPECT_EQ(out, PatternPage(kMinPageSize, b));
  EXPECT_EQ(store.AllocatePage(), 3);
  EXPECT_EQ(store.page_count(), 4);
}

TEST(FileStorageManagerTest, CreateFlushReopenRoundTrip) {
  const std::string path = TempPath("roundtrip.lbsq");
  std::filesystem::remove(path);
  StoreMeta meta;
  meta.dataset_digest = 0xdeadbeefcafef00dull;
  meta.epoch = 7;
  meta.shards = 3;
  meta.world_x2 = 20.0;
  meta.world_y2 = 20.0;
  meta.bucket_capacity = 10;
  meta.hilbert_order = 8;
  meta.poi_count = 2750;
  {
    auto store = FileStorageManager::Create(path, kMinPageSize);
    ASSERT_NE(store, nullptr);
    const int64_t a = store->AllocatePage();
    const int64_t b = store->AllocatePage();
    store->WritePage(a, PatternPage(kMinPageSize, a).data());
    store->WritePage(b, PatternPage(kMinPageSize, b).data());
    store->set_meta(meta);
    // The pages go to a temporary file; the path appears only on Flush.
    EXPECT_FALSE(std::filesystem::exists(path));
    ASSERT_TRUE(store->Flush());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  OpenStatus status = OpenStatus::kOk;
  auto store = FileStorageManager::Open(path, &status);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(status, OpenStatus::kOk);
  EXPECT_EQ(store->page_size(), kMinPageSize);
  EXPECT_EQ(store->page_count(), 3);
  EXPECT_EQ(store->meta().dataset_digest, meta.dataset_digest);
  EXPECT_EQ(store->meta().epoch, meta.epoch);
  EXPECT_EQ(store->meta().shards, meta.shards);
  EXPECT_EQ(store->meta().world_x2, meta.world_x2);
  EXPECT_EQ(store->meta().bucket_capacity, meta.bucket_capacity);
  EXPECT_EQ(store->meta().hilbert_order, meta.hilbert_order);
  EXPECT_EQ(store->meta().poi_count, meta.poi_count);
  std::vector<uint8_t> out(kMinPageSize);
  store->ReadPage(1, out.data());
  EXPECT_EQ(out, PatternPage(kMinPageSize, 1));
  store->ReadPage(2, out.data());
  EXPECT_EQ(out, PatternPage(kMinPageSize, 2));
}

TEST(FileStorageManagerTest, UnwrittenPagesSurviveReopen) {
  const std::string path = TempPath("unwritten.lbsq");
  {
    auto store = FileStorageManager::Create(path, kMinPageSize);
    ASSERT_NE(store, nullptr);
    store->AllocatePage();  // 1
    const int64_t b = store->AllocatePage();
    store->AllocatePage();  // 3, past the last page written
    store->WritePage(b, PatternPage(kMinPageSize, b).data());
    ASSERT_TRUE(store->Flush());
  }
  // The published file covers every allocated page, so it opens in full.
  OpenStatus status = OpenStatus::kOk;
  auto store = FileStorageManager::Open(path, &status);
  ASSERT_NE(store, nullptr) << OpenStatusName(status);
  EXPECT_EQ(store->page_count(), 4);
  std::vector<uint8_t> out(kMinPageSize);
  store->ReadPage(2, out.data());
  EXPECT_EQ(out, PatternPage(kMinPageSize, 2));
  store->ReadPage(3, out.data());
  EXPECT_EQ(out, std::vector<uint8_t>(kMinPageSize, 0));
}

TEST(FileStorageManagerTest, OpenMissingFileIsIoError) {
  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(FileStorageManager::Open(TempPath("does-not-exist.lbsq"), &status),
            nullptr);
  EXPECT_EQ(status, OpenStatus::kIoError);
}

TEST(FileStorageManagerTest, OpenRejectsBadMagic) {
  const std::string path = TempPath("badmagic.lbsq");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::vector<uint8_t> junk(kMinPageSize, uint8_t{'X'});
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
    std::fclose(f);
  }
  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(FileStorageManager::Open(path, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kBadMagic);
}

TEST(FileStorageManagerTest, OpenRejectsCorruptedHeader) {
  const std::string path = TempPath("corrupt.lbsq");
  {
    auto store = FileStorageManager::Create(path, kMinPageSize);
    ASSERT_NE(store, nullptr);
    store->AllocatePage();
    ASSERT_TRUE(store->Flush());
  }
  {
    // Flip one byte inside the header payload (past magic + length).
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
    const uint8_t corrupt = 0xff;
    ASSERT_EQ(std::fwrite(&corrupt, 1, 1, f), 1u);
    std::fclose(f);
  }
  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(FileStorageManager::Open(path, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kBadHeaderChecksum);
}

TEST(FileStorageManagerTest, OpenRejectsTruncatedFile) {
  const std::string path = TempPath("truncated.lbsq");
  {
    auto store = FileStorageManager::Create(path, kMinPageSize);
    ASSERT_NE(store, nullptr);
    const int64_t a = store->AllocatePage();
    store->WritePage(a, PatternPage(kMinPageSize, a).data());
    ASSERT_TRUE(store->Flush());
  }
  // Chop the tail of the last page: the header still parses, but the store
  // no longer covers the page count it declares.
  std::filesystem::resize_file(path, 2 * kMinPageSize - 1);
  OpenStatus status = OpenStatus::kOk;
  EXPECT_EQ(FileStorageManager::Open(path, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kTruncated);

  // A file shorter than the header prefix is truncated too, not bad-magic.
  std::filesystem::resize_file(path, 8);
  EXPECT_EQ(FileStorageManager::Open(path, &status), nullptr);
  EXPECT_EQ(status, OpenStatus::kTruncated);
}

TEST(BlobTest, RoundTripAcrossPageChain) {
  MemoryStorageManager store(kMinPageSize);
  Rng rng(5);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{247}, size_t{248},
                            size_t{249}, size_t{4000}}) {
    std::vector<uint8_t> blob(size);
    for (uint8_t& b : blob) b = static_cast<uint8_t>(rng.NextBelow(256));
    const BlobRef ref = WriteBlob(&store, blob.data(), blob.size());
    std::vector<uint8_t> out;
    ASSERT_TRUE(ReadBlob(store, ref, &out)) << size;
    EXPECT_EQ(out, blob) << size;
  }
}

TEST(BlobTest, CorruptedPayloadFailsCrc) {
  MemoryStorageManager store(kMinPageSize);
  std::vector<uint8_t> blob(1000, uint8_t{0x5a});
  const BlobRef ref = WriteBlob(&store, blob.data(), blob.size());

  std::vector<uint8_t> page(kMinPageSize);
  store.ReadPage(ref.first_page, page.data());
  page[12] ^= 0x01;  // one payload bit, past the 8-byte chain pointer
  store.WritePage(ref.first_page, page.data());

  std::vector<uint8_t> out;
  EXPECT_FALSE(ReadBlob(store, ref, &out));
}

TEST(BlobTest, BrokenChainFails) {
  MemoryStorageManager store(kMinPageSize);
  std::vector<uint8_t> blob(1000, uint8_t{0x33});
  const BlobRef ref = WriteBlob(&store, blob.data(), blob.size());

  // Point the first page's chain pointer out of bounds.
  std::vector<uint8_t> page(kMinPageSize);
  store.ReadPage(ref.first_page, page.data());
  page[0] = 0xff;
  page[7] = 0x7f;
  store.WritePage(ref.first_page, page.data());

  std::vector<uint8_t> out;
  EXPECT_FALSE(ReadBlob(store, ref, &out));
}

}  // namespace
}  // namespace lbsq::storage

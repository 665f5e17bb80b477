#include "storage/storage_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "broadcast/wire.h"
#include "common/check.h"

namespace lbsq::storage {

namespace {

/// Store-file magic: 8 bytes at offset 0.
constexpr char kMagic[8] = {'L', 'B', 'S', 'Q', 'S', 'T', 'R', '1'};
constexpr uint8_t kHeaderVersion = 1;
/// magic + u32le payload length.
constexpr size_t kHeaderPrefix = sizeof(kMagic) + 4;
/// Chain pointer at the head of every blob page.
constexpr size_t kChainPointerBytes = 8;

void PutI64Le(uint8_t* out, int64_t value) {
  uint64_t u = static_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(u >> (8 * i));
}

int64_t GetI64Le(const uint8_t* in) {
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u |= static_cast<uint64_t>(in[i]) << (8 * i);
  return static_cast<int64_t>(u);
}

/// Varint-friendly encoding of a page id that may be kInvalidPage.
uint64_t EncodePageId(int64_t page) {
  return static_cast<uint64_t>(page + 1);
}
int64_t DecodePageId(uint64_t raw) { return static_cast<int64_t>(raw) - 1; }

/// Serializes (page_size, page_count, meta) — everything the header
/// carries besides the magic/length framing.
std::vector<uint8_t> EncodeHeaderPayload(size_t page_size, int64_t page_count,
                                         const StoreMeta& meta) {
  broadcast::ByteWriter writer;
  writer.PutU8(kHeaderVersion);
  writer.PutVarint(page_size);
  writer.PutVarint(static_cast<uint64_t>(page_count));
  // Format version 1 has a free-list head here; a write-once store has no
  // free pages, so it is always "none".
  writer.PutVarint(EncodePageId(kInvalidPage));
  writer.PutVarint(meta.dataset_digest);
  writer.PutVarint(meta.epoch);
  writer.PutVarint(meta.shards);
  writer.PutDouble(meta.world_x1);
  writer.PutDouble(meta.world_y1);
  writer.PutDouble(meta.world_x2);
  writer.PutDouble(meta.world_y2);
  writer.PutVarint(meta.bucket_capacity);
  writer.PutVarint(meta.index_entries_per_bucket);
  writer.PutVarint(meta.m);
  writer.PutVarint(meta.hilbert_order);
  writer.PutU8(meta.curve);
  writer.PutU8(meta.index_kind);
  writer.PutVarint(meta.poi_count);
  writer.PutVarint(EncodePageId(meta.catalog_page));
  writer.PutVarint(meta.catalog_size);
  return writer.bytes();
}

/// Parses the header payload (CRC already verified). Returns kOk, or
/// kBadVersion / kBadHeaderChecksum on a malformed payload.
OpenStatus DecodeHeaderPayload(const uint8_t* data, size_t size,
                               size_t* page_size, int64_t* page_count,
                               StoreMeta* meta) {
  broadcast::ByteReader reader(data, size);
  const uint8_t version = reader.GetU8();
  if (!reader.ok()) return OpenStatus::kBadHeaderChecksum;
  if (version != kHeaderVersion) return OpenStatus::kBadVersion;
  *page_size = static_cast<size_t>(reader.GetVarint());
  *page_count = static_cast<int64_t>(reader.GetVarint());
  reader.GetVarint();  // the free-list head, unused by a write-once store
  meta->dataset_digest = reader.GetVarint();
  meta->epoch = reader.GetVarint();
  meta->shards = static_cast<uint32_t>(reader.GetVarint());
  meta->world_x1 = reader.GetDouble();
  meta->world_y1 = reader.GetDouble();
  meta->world_x2 = reader.GetDouble();
  meta->world_y2 = reader.GetDouble();
  meta->bucket_capacity = static_cast<uint32_t>(reader.GetVarint());
  meta->index_entries_per_bucket = static_cast<uint32_t>(reader.GetVarint());
  meta->m = static_cast<uint32_t>(reader.GetVarint());
  meta->hilbert_order = static_cast<uint32_t>(reader.GetVarint());
  meta->curve = reader.GetU8();
  meta->index_kind = reader.GetU8();
  meta->poi_count = reader.GetVarint();
  meta->catalog_page = DecodePageId(reader.GetVarint());
  meta->catalog_size = reader.GetVarint();
  if (!reader.ok() || reader.remaining() != 0) {
    return OpenStatus::kBadHeaderChecksum;
  }
  if (*page_size < kMinPageSize || *page_size > kMaxPageSize ||
      *page_count < 1) {
    return OpenStatus::kBadHeaderChecksum;
  }
  return OpenStatus::kOk;
}

/// Byte offset of `page` in a store file.
long PageOffset(int64_t page, size_t page_size) {
  return static_cast<long>(page * static_cast<int64_t>(page_size));
}

/// Makes a rename in the directory of `path` durable.
bool SyncParentDirectory(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const int fd =
      ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

const char* OpenStatusName(OpenStatus status) {
  switch (status) {
    case OpenStatus::kOk:
      return "ok";
    case OpenStatus::kIoError:
      return "io-error";
    case OpenStatus::kBadMagic:
      return "bad-magic";
    case OpenStatus::kBadVersion:
      return "bad-version";
    case OpenStatus::kBadHeaderChecksum:
      return "bad-header-checksum";
    case OpenStatus::kTruncated:
      return "truncated";
    case OpenStatus::kBadBlob:
      return "bad-blob";
    case OpenStatus::kDatasetMismatch:
      return "dataset-mismatch";
    case OpenStatus::kParamsMismatch:
      return "params-mismatch";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// MemoryStorageManager

MemoryStorageManager::MemoryStorageManager(size_t page_size)
    : page_size_(page_size) {
  LBSQ_CHECK_GE(page_size_, kMinPageSize);
  LBSQ_CHECK_LE(page_size_, kMaxPageSize);
  pages_.emplace_back();  // page 0: header placeholder, never written
}

int64_t MemoryStorageManager::AllocatePage() {
  pages_.emplace_back(page_size_, uint8_t{0});
  return static_cast<int64_t>(pages_.size()) - 1;
}

void MemoryStorageManager::WritePage(int64_t page, const uint8_t* data) {
  LBSQ_CHECK(page >= 1 && page < page_count());
  std::vector<uint8_t>& slot = pages_[static_cast<size_t>(page)];
  slot.assign(data, data + page_size_);
}

void MemoryStorageManager::ReadPage(int64_t page, uint8_t* out) const {
  LBSQ_CHECK(page >= 1 && page < page_count());
  const std::vector<uint8_t>& slot = pages_[static_cast<size_t>(page)];
  LBSQ_CHECK_EQ(slot.size(), page_size_);
  std::memcpy(out, slot.data(), page_size_);
}

// ---------------------------------------------------------------------------
// FileStorageManager

FileStorageManager::FileStorageManager(std::FILE* file, size_t page_size,
                                       std::string path, std::string temp_path)
    : file_(file),
      page_size_(page_size),
      path_(std::move(path)),
      temp_path_(std::move(temp_path)) {}

FileStorageManager::~FileStorageManager() {
  if (file_ != nullptr) std::fclose(file_);
  if (!temp_path_.empty()) std::remove(temp_path_.c_str());
}

std::unique_ptr<FileStorageManager> FileStorageManager::Create(
    const std::string& path, size_t page_size) {
  LBSQ_CHECK_GE(page_size, kMinPageSize);
  LBSQ_CHECK_LE(page_size, kMaxPageSize);
  // The pid keeps writers in different processes off each other's file.
  std::string temp_path = path + "." + std::to_string(::getpid()) + ".tmp";
  std::FILE* file = std::fopen(temp_path.c_str(), "w+b");
  if (file == nullptr) return nullptr;
  return std::unique_ptr<FileStorageManager>(
      new FileStorageManager(file, page_size, path, std::move(temp_path)));
}

std::unique_ptr<FileStorageManager> FileStorageManager::Open(
    const std::string& path, OpenStatus* status) {
  *status = OpenStatus::kIoError;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return nullptr;
  // The header must fit in the smallest legal page, so kMinPageSize bytes
  // are enough to parse it — before the page size is known.
  uint8_t head[kMinPageSize];
  const size_t got = std::fread(head, 1, sizeof(head), file);
  if (got < kHeaderPrefix + 4) {
    *status = OpenStatus::kTruncated;
    std::fclose(file);
    return nullptr;
  }
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    *status = OpenStatus::kBadMagic;
    std::fclose(file);
    return nullptr;
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, head + sizeof(kMagic), 4);
  if (payload_len < 4 || kHeaderPrefix + payload_len > sizeof(head) ||
      kHeaderPrefix + payload_len > got) {
    *status = OpenStatus::kBadHeaderChecksum;
    std::fclose(file);
    return nullptr;
  }
  const uint8_t* payload = head + kHeaderPrefix;
  if (!broadcast::VerifyCrc32(payload, payload_len)) {
    *status = OpenStatus::kBadHeaderChecksum;
    std::fclose(file);
    return nullptr;
  }
  size_t page_size = 0;
  int64_t page_count = 0;
  StoreMeta meta;
  const OpenStatus header_status = DecodeHeaderPayload(
      payload, payload_len - 4, &page_size, &page_count, &meta);
  if (header_status != OpenStatus::kOk) {
    *status = header_status;
    std::fclose(file);
    return nullptr;
  }
  // Every page the header declares must be present in full. Dividing the
  // file size, rather than multiplying the page count, keeps a crafted
  // count from wrapping past the check.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return nullptr;
  }
  const long file_size = std::ftell(file);
  if (file_size < 0) {
    std::fclose(file);
    return nullptr;
  }
  if (static_cast<uint64_t>(file_size) / page_size <
      static_cast<uint64_t>(page_count)) {
    *status = OpenStatus::kTruncated;
    std::fclose(file);
    return nullptr;
  }
  auto store = std::unique_ptr<FileStorageManager>(
      new FileStorageManager(file, page_size, path, /*temp_path=*/""));
  store->page_count_ = page_count;
  store->meta_ = meta;
  *status = OpenStatus::kOk;
  return store;
}

int64_t FileStorageManager::AllocatePage() {
  LBSQ_CHECK(!temp_path_.empty());
  return page_count_++;
}

void FileStorageManager::WritePage(int64_t page, const uint8_t* data) {
  LBSQ_CHECK(!temp_path_.empty());
  LBSQ_CHECK(page >= 1 && page < page_count_);
  if (write_failed_) return;
  write_failed_ =
      std::fseek(file_, PageOffset(page, page_size_), SEEK_SET) != 0 ||
      std::fwrite(data, 1, page_size_, file_) != page_size_;
}

void FileStorageManager::ReadPage(int64_t page, uint8_t* out) const {
  LBSQ_CHECK(page >= 1 && page < page_count_);
  LBSQ_CHECK_EQ(std::fseek(file_, PageOffset(page, page_size_), SEEK_SET), 0);
  LBSQ_CHECK_EQ(std::fread(out, 1, page_size_, file_), page_size_);
}

bool FileStorageManager::Flush() {
  LBSQ_CHECK(!temp_path_.empty());
  if (write_failed_) return false;
  std::vector<uint8_t> framed =
      EncodeHeaderPayload(page_size_, page_count_, meta_);
  broadcast::AppendCrc32(&framed);
  LBSQ_CHECK_LE(kHeaderPrefix + framed.size(), kMinPageSize);
  std::vector<uint8_t> page(page_size_, 0);
  std::memcpy(page.data(), kMagic, sizeof(kMagic));
  const uint32_t len = static_cast<uint32_t>(framed.size());
  std::memcpy(page.data() + sizeof(kMagic), &len, 4);
  std::memcpy(page.data() + kHeaderPrefix, framed.data(), framed.size());
  // The temporary file is complete and durable — every page the header
  // declares is present (ftruncate covers pages allocated but never
  // written) — before the rename makes it the store at `path_`.
  const int fd = ::fileno(file_);
  write_failed_ =
      std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(page.data(), 1, page.size(), file_) != page.size() ||
      std::fflush(file_) != 0 ||
      ::ftruncate(fd, PageOffset(page_count_, page_size_)) != 0 ||
      ::fsync(fd) != 0 ||
      std::rename(temp_path_.c_str(), path_.c_str()) != 0;
  if (write_failed_) return false;
  temp_path_.clear();
  return SyncParentDirectory(path_);
}

// ---------------------------------------------------------------------------
// Blob chains

BlobRef WriteBlob(IStorageManager* store, const uint8_t* data, size_t size) {
  std::vector<uint8_t> framed(data, data + size);
  broadcast::AppendCrc32(&framed);
  const size_t page_size = store->page_size();
  const size_t payload_per_page = page_size - kChainPointerBytes;
  const size_t num_pages = (framed.size() + payload_per_page - 1) /
                           payload_per_page;
  std::vector<int64_t> pages(num_pages);
  for (size_t i = 0; i < num_pages; ++i) pages[i] = store->AllocatePage();
  std::vector<uint8_t> page(page_size, 0);
  for (size_t i = 0; i < num_pages; ++i) {
    const int64_t next = i + 1 < num_pages ? pages[i + 1] : kInvalidPage;
    PutI64Le(page.data(), next);
    const size_t offset = i * payload_per_page;
    const size_t take = std::min(payload_per_page, framed.size() - offset);
    std::memcpy(page.data() + kChainPointerBytes, framed.data() + offset,
                take);
    std::fill(page.begin() + static_cast<ptrdiff_t>(kChainPointerBytes + take),
              page.end(), uint8_t{0});
    store->WritePage(pages[i], page.data());
  }
  BlobRef ref;
  ref.first_page = num_pages > 0 ? pages[0] : kInvalidPage;
  ref.size = framed.size();
  return ref;
}

bool ReadBlob(const IStorageManager& store, const BlobRef& ref,
              std::vector<uint8_t>* out) {
  out->clear();
  const size_t page_size = store.page_size();
  const size_t payload_per_page = page_size - kChainPointerBytes;
  // No blob holds more than the payload of every page in the store; a
  // larger size is a damaged reference, never an allocation.
  const uint64_t capacity =
      static_cast<uint64_t>(store.page_count() - 1) * payload_per_page;
  if (ref.size > capacity) return false;
  out->reserve(ref.size);
  std::vector<uint8_t> frame(page_size);
  int64_t page = ref.first_page;
  uint64_t remaining = ref.size;
  while (remaining > 0) {
    if (page < 1 || page >= store.page_count()) return false;
    store.ReadPage(page, frame.data());
    const int64_t next = GetI64Le(frame.data());
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(payload_per_page, remaining));
    out->insert(out->end(), frame.data() + kChainPointerBytes,
                frame.data() + kChainPointerBytes + take);
    remaining -= take;
    page = next;
  }
  if (page != kInvalidPage) return false;
  // Every blob carries a CRC-32 trailer over its payload.
  if (out->size() < 4 || !broadcast::VerifyCrc32(out->data(), out->size())) {
    return false;
  }
  out->resize(out->size() - 4);
  return true;
}

}  // namespace lbsq::storage

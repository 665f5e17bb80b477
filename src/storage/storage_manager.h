#ifndef LBSQ_STORAGE_STORAGE_MANAGER_H_
#define LBSQ_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

/// \file
/// The paged storage layer. `IStorageManager` is the brepdb-style page
/// abstraction under the persisted broadcast artifact: fixed-size pages
/// with stable ids, appended and written whole by the builder, then read
/// whole. A store is written once: it holds the fixed channel of one epoch,
/// so nothing frees a page or writes to a store after it is published. Two
/// backends:
///
///  - `MemoryStorageManager` — a page vector; the default, with no
///    persistence and no I/O. Byte-compatible with the file backend (the
///    same blob/catalog bytes land in the same page layout), which is what
///    the differential store tests diff against.
///  - `FileStorageManager` — a single-file page store. Page 0 is a
///    checksummed header carrying the store metadata (dataset digest,
///    Hilbert order and curve, epoch, broadcast parameters, world rect) so
///    an open can reject a store built for a different deployment before
///    decoding a single payload page. A new store is written to a
///    temporary file beside its path and published by rename, so the path
///    always names a complete store: the previous one until the new one is
///    durable, the new one after.
///
/// File layout:
///   page 0  := magic "LBSQSTR1" | u32le len | header payload | u32le crc32
///   page k  := payload page (k >= 1)
///
/// Blobs — byte strings larger than a page — are stored as page chains:
/// each page of a blob starts with the i64le id of the next page in the
/// chain (-1 for the last), followed by payload bytes. Every blob carries a
/// CRC-32 trailer, verified on read. The catalog (what blobs exist and
/// where) is itself a blob whose location lives in the header.
///
/// Error handling follows the repo contract: programming errors (bad page
/// id, wrong buffer size, a write to a published store) abort via
/// LBSQ_CHECK; *environmental* failures — a failed write, or a corrupt,
/// truncated, or mismatched store file — surface as a false Flush or a
/// typed `OpenStatus` so tools and servers report them instead of
/// crashing or serving the wrong world.

namespace lbsq::storage {

/// Sentinel page id: "no page" (chain terminator).
inline constexpr int64_t kInvalidPage = -1;

/// Smallest supported page size: the header and a chain pointer plus CRC
/// must fit with room for payload.
inline constexpr size_t kMinPageSize = 256;

/// Default page size of the file store (a filesystem-friendly 4 KiB).
inline constexpr size_t kDefaultPageSize = 4096;

/// Largest supported page size. A reader allocates one page-sized frame,
/// so a header declaring more is refused rather than allocated.
inline constexpr size_t kMaxPageSize = size_t{1} << 20;

/// Why an open (or the system-level decode above it) failed. kOk is the
/// success value so callers can branch on a single status.
enum class OpenStatus {
  kOk,
  /// The file could not be read (missing, permissions, short read).
  kIoError,
  /// The header magic is not "LBSQSTR1" — not a store file.
  kBadMagic,
  /// The store format version is newer than this build understands.
  kBadVersion,
  /// The header CRC-32 does not match its payload, or the payload is
  /// malformed or declares an unsupported page size — corrupted header.
  kBadHeaderChecksum,
  /// The file is shorter than the page count the header declares.
  kTruncated,
  /// A payload blob failed its CRC or decoded inconsistently.
  kBadBlob,
  /// The header's dataset digest differs from the requested deployment's.
  kDatasetMismatch,
  /// The header's build parameters (Hilbert order, curve, epoch, bucket
  /// geometry, world rect) differ from the requested deployment's.
  kParamsMismatch,
};

/// Human-readable name for diagnostics ("dataset-mismatch", ...).
const char* OpenStatusName(OpenStatus status);

/// The deployment identity stamped into the store header. Scalars only —
/// the storage layer does not depend on the broadcast module; the system
/// builder translates to/from `broadcast::BroadcastParams`.
struct StoreMeta {
  /// Digest of the dataset the store was built from (builder-chosen; the
  /// tools use sim::DatasetSpec::Digest()).
  uint64_t dataset_digest = 0;
  /// World epoch of the persisted channel state.
  uint64_t epoch = 0;
  uint32_t shards = 1;
  /// World rectangle the channels were built over.
  double world_x1 = 0.0, world_y1 = 0.0, world_x2 = 0.0, world_y2 = 0.0;
  /// broadcast::BroadcastParams scalars.
  uint32_t bucket_capacity = 0;
  uint32_t index_entries_per_bucket = 0;
  uint32_t m = 0;
  uint32_t hilbert_order = 0;
  uint8_t curve = 0;       ///< hilbert::CurveKind
  uint8_t index_kind = 0;  ///< broadcast::IndexKind
  /// Total POIs across all shards.
  uint64_t poi_count = 0;
  /// Location of the catalog blob (kInvalidPage until WriteStore runs).
  int64_t catalog_page = kInvalidPage;
  uint64_t catalog_size = 0;
};

/// A stored byte string: the head of its page chain and its on-store size
/// (payload plus the 4-byte CRC trailer).
struct BlobRef {
  int64_t first_page = kInvalidPage;
  uint64_t size = 0;
};

/// The page-level storage interface. Page 0 is reserved for the backend's
/// header; payload pages have ids >= 1. Not thread-safe: builds are
/// single-threaded, and an open reads every blob once into the engine.
class IStorageManager {
 public:
  virtual ~IStorageManager() = default;

  /// Fixed page size in bytes (>= kMinPageSize).
  virtual size_t page_size() const = 0;
  /// Pages in the store, including page 0.
  virtual int64_t page_count() const = 0;

  /// Appends a page and returns its id (ids count up from 1). The page's
  /// contents are unspecified until the first WritePage.
  virtual int64_t AllocatePage() = 0;
  /// Writes one full page (`data` holds page_size() bytes). `page` must be
  /// a live payload page.
  virtual void WritePage(int64_t page, const uint8_t* data) = 0;
  /// Reads one full page into `out` (page_size() bytes).
  virtual void ReadPage(int64_t page, uint8_t* out) const = 0;

  /// Persists header + metadata and publishes the store (no-op for the
  /// memory backend). Returns false on an I/O failure.
  virtual bool Flush() = 0;

  /// The deployment metadata carried by the store header.
  const StoreMeta& meta() const { return meta_; }
  void set_meta(const StoreMeta& meta) { meta_ = meta; }

 protected:
  StoreMeta meta_;
};

/// In-memory page store; the default backend. No persistence: Flush is a
/// no-op and the store dies with the process.
class MemoryStorageManager : public IStorageManager {
 public:
  explicit MemoryStorageManager(size_t page_size = kDefaultPageSize);

  size_t page_size() const override { return page_size_; }
  int64_t page_count() const override {
    return static_cast<int64_t>(pages_.size());
  }
  int64_t AllocatePage() override;
  void WritePage(int64_t page, const uint8_t* data) override;
  void ReadPage(int64_t page, uint8_t* out) const override;
  bool Flush() override { return true; }

 private:
  size_t page_size_;
  /// pages_[0] exists but is never written (header is meta_ directly).
  std::vector<std::vector<uint8_t>> pages_;
};

/// Single-file page store. Create() starts an empty store that is
/// published on Flush; Open() validates magic, version, checksum, and
/// length before returning a read-only store.
class FileStorageManager : public IStorageManager {
 public:
  /// Starts an empty store that will replace `path`. Pages go to a
  /// temporary file beside it, `<path>.<pid>.tmp`; until Flush publishes
  /// that file, `path` keeps its old contents, and a store destroyed
  /// unpublished deletes the temporary file. A process writes one store
  /// per path at a time. Returns null when the temporary file cannot be
  /// created.
  static std::unique_ptr<FileStorageManager> Create(const std::string& path,
                                                    size_t page_size);

  /// Opens an existing store read-only. On failure returns null and sets
  /// `*status` (kIoError / kBadMagic / kBadVersion / kBadHeaderChecksum /
  /// kTruncated); on success sets kOk.
  static std::unique_ptr<FileStorageManager> Open(const std::string& path,
                                                  OpenStatus* status);

  ~FileStorageManager() override;
  FileStorageManager(const FileStorageManager&) = delete;
  FileStorageManager& operator=(const FileStorageManager&) = delete;

  size_t page_size() const override { return page_size_; }
  int64_t page_count() const override { return page_count_; }
  int64_t AllocatePage() override;
  /// A failed write (disk full, file-size limit) does not abort: it is
  /// latched, and Flush then returns false without publishing.
  void WritePage(int64_t page, const uint8_t* data) override;
  void ReadPage(int64_t page, uint8_t* out) const override;
  /// Publishes a created store: writes the header, fsyncs the temporary
  /// file, renames it over the path and fsyncs the directory. Returns false
  /// if a page write or any of these steps failed; the path is then left
  /// as it was unless only the directory fsync failed. The store is
  /// read-only afterwards, and calling Flush again is a programming error.
  bool Flush() override;

 private:
  FileStorageManager(std::FILE* file, size_t page_size, std::string path,
                     std::string temp_path);

  std::FILE* file_;
  size_t page_size_;
  int64_t page_count_ = 1;  // page 0 = header
  std::string path_;
  /// The temporary file of a created, unpublished store; empty once the
  /// store is published, and for an opened store.
  std::string temp_path_;
  bool write_failed_ = false;
};

/// Writes `size` bytes as a page chain with a CRC-32 trailer; returns its
/// ref. Pages come from `store->AllocatePage()`.
BlobRef WriteBlob(IStorageManager* store, const uint8_t* data, size_t size);

/// Reads a blob back into `*out` (payload only — the CRC trailer is
/// verified and stripped). Returns false on an inconsistent chain or a CRC
/// mismatch (the kBadBlob condition).
bool ReadBlob(const IStorageManager& store, const BlobRef& ref,
              std::vector<uint8_t>* out);

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_STORAGE_MANAGER_H_

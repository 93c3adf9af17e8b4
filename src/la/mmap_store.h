#ifndef ENTMATCHER_LA_MMAP_STORE_H_
#define ENTMATCHER_LA_MMAP_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// EMBF1: the out-of-core embedding container. On-disk layout (little-endian):
///
///   bytes 0..3    magic "EMBF"
///   uint64        format version (= 1)
///   uint64        rows
///   uint64        cols
///   uint64        payload offset in bytes (= 64; leaves the payload
///                 page-friendly and room to grow the header)
///   zero padding up to the payload offset
///   float32[rows * cols], row-major
///
/// The point of the format is that the payload *is* the in-memory
/// representation: an MmapStore maps the file read-only and hands out a
/// borrowed Matrix straight over the page cache, so a 1M x 128d
/// pair (512 MB of floats per side) can feed the matching engine without ever
/// being materialized on the heap.
inline constexpr char kEmbfMagic[4] = {'E', 'M', 'B', 'F'};
constexpr size_t kEmbfHeaderBytes = 64;
constexpr uint64_t kEmbfFormatVersion = 1;

/// A read-only, memory-mapped, row-major float32 embedding store over an
/// EMBF1 file. Move-only; the mapping (and the MemoryTracker charge) lives
/// until the store holding it is destroyed. All reads are plain const loads
/// — a store can be shared across any number of threads. ReadMatrixBinary
/// (la/matrix_io.h) is how embeddings are read; it maps EMBF files through
/// this class.
///
/// The mapping is advised MADV_RANDOM: the index probes and reranks touch
/// rows scattered across the file. A file truncated in place while it is
/// mapped faults (SIGBUS) on the next read of a lost page; EmbfWriter
/// replaces files by rename, which leaves live mappings their old bytes.
///
/// MemoryTracker charge: min(64 MB, logical bytes). A mapped file's logical
/// bytes are not resident bytes — the kernel pages rows in on demand and can
/// evict them under pressure — so charging rows*cols*4 would make a 1M-row
/// store look like it blew any workspace budget while actually touching a
/// few MB. 64 MB stands for the working set the page cache keeps; benches
/// gate real peak RSS separately.
class MmapStore {
 public:
  /// What a store larger than this charges to MemoryTracker.
  static constexpr size_t kResidentChargeBytes = 64ull << 20;

  /// Maps `path`, validating magic, version, shape, and file size against
  /// the header. Fault point "mmap.load.read" (kIoError) fires before the
  /// file is opened, modeling a storage-layer read failure.
  static Result<MmapStore> Open(const std::string& path);

  /// Writes `matrix` to `path` in EMBF1 format.
  static Status Write(const Matrix& matrix, const std::string& path);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Total payload bytes if the matrix were materialized.
  size_t logical_bytes() const { return rows_ * cols_ * sizeof(float); }
  /// What this store charged to MemoryTracker (kResidentChargeBytes, capped
  /// at the logical size).
  size_t tracked_bytes() const {
    return mapping_ != nullptr ? mapping_.get_deleter().tracked_bytes : 0;
  }

  /// A borrowed Matrix over the mapping, suitable for PairSnapshot::Build
  /// and the similarity kernels. The store must outlive every copy of the
  /// *borrowed* view (a Matrix copy detaches into owned memory). The buffer
  /// is mapped PROT_READ: writing through the view is a bug and faults.
  Matrix AsMatrix() const;

 private:
  /// Unmaps the whole-file mapping (header + payload) and releases its
  /// tracker charge, once, from whichever store the mapping moved into.
  struct Unmapper {
    size_t bytes;
    size_t tracked_bytes;
    void operator()(void* addr) const;
  };

  MmapStore() = default;

  std::unique_ptr<void, Unmapper> mapping_;
  const float* data_ = nullptr;  // payload start inside the mapping
  size_t rows_ = 0;
  size_t cols_ = 0;
};

/// Streaming EMBF1 writer: declares the shape up front, appends rows, and
/// patches nothing afterwards (the header is complete from byte 0). This is
/// how the synthetic 1M-row generators emit files with O(cols) live memory.
///
/// The rows go to a temporary file beside `path`, renamed over `path` by
/// Finish: a process that has the old file mapped keeps reading its old
/// bytes, and a writer that fails or is destroyed before Finish removes
/// its temporary and leaves `path` as it was.
class EmbfWriter {
 public:
  /// Creates the temporary for `path` and writes the header for a
  /// rows x cols store.
  static Result<EmbfWriter> Create(const std::string& path, size_t rows,
                                   size_t cols);

  EmbfWriter(EmbfWriter&&) noexcept = default;
  EmbfWriter& operator=(EmbfWriter&&) = delete;
  EmbfWriter(const EmbfWriter&) = delete;
  EmbfWriter& operator=(const EmbfWriter&) = delete;
  ~EmbfWriter();

  /// Appends one row; `row.size()` must equal the declared cols.
  Status Append(std::span<const float> row);

  /// Flushes, closes and renames the temporary over `path`; fails (and
  /// removes the temporary) unless exactly the declared number of rows was
  /// appended. After Finish the writer is inert.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  EmbfWriter() = default;

  struct FileCloser {
    void operator()(void* f) const;
  };
  std::unique_ptr<void, FileCloser> file_;  // FILE*, type-erased
  std::string path_;
  std::string temp_path_;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t rows_written_ = 0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_MMAP_STORE_H_

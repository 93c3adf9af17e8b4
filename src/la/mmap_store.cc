#include "la/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "common/memory_tracker.h"

namespace entmatcher {

namespace {

struct EmbfHeader {
  char magic[4];
  uint64_t version;
  uint64_t rows;
  uint64_t cols;
  uint64_t payload_offset;
};

Status WriteHeader(std::FILE* f, size_t rows, size_t cols,
                   const std::string& path) {
  unsigned char header[kEmbfHeaderBytes] = {};
  std::memcpy(header, kEmbfMagic, sizeof(kEmbfMagic));
  const uint64_t fields[4] = {kEmbfFormatVersion, rows, cols,
                              kEmbfHeaderBytes};
  std::memcpy(header + sizeof(kEmbfMagic), fields, sizeof(fields));
  if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header)) {
    return Status::IoError("EMBF write failed: " + path);
  }
  return Status::OK();
}

}  // namespace

Result<MmapStore> MmapStore::Open(const std::string& path) {
  // Chaos point: a storage-layer read failure (missing volume, EIO) before
  // any byte of the file is touched — the mmap mirror of "index.load.read".
  EM_INJECT_FAULT("mmap.load.read", StatusCode::kIoError);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open EMBF store: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat EMBF store: " + path);
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kEmbfHeaderBytes) {
    ::close(fd);
    return Status::IoError("EMBF store truncated before header: " + path);
  }

  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping pins the inode; the descriptor is no longer needed either way.
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError("mmap failed for EMBF store: " + path);
  }

  EmbfHeader header;
  std::memcpy(header.magic, map, sizeof(header.magic));
  std::memcpy(&header.version, static_cast<const char*>(map) + 4,
              4 * sizeof(uint64_t));
  Status invalid = Status::OK();
  if (std::memcmp(header.magic, kEmbfMagic, sizeof(kEmbfMagic)) != 0) {
    invalid = Status::IoError("not an EMBF store (bad magic): " + path);
  } else if (header.version != kEmbfFormatVersion) {
    invalid = Status::IoError("unsupported EMBF version " +
                               std::to_string(header.version) + ": " + path);
  } else if (header.payload_offset < kEmbfHeaderBytes ||
             header.payload_offset > file_bytes ||
             header.payload_offset % sizeof(float) != 0) {
    invalid = Status::IoError("EMBF payload offset out of range: " + path);
  } else if (header.cols == 0 ||
             header.rows >
                 (std::numeric_limits<size_t>::max() / sizeof(float)) /
                     std::max<uint64_t>(header.cols, 1)) {
    invalid = Status::IoError("EMBF shape overflows: " + path);
  } else if (file_bytes - header.payload_offset <
             header.rows * header.cols * sizeof(float)) {
    invalid = Status::IoError("EMBF store truncated mid-payload: " + path);
  }
  if (!invalid.ok()) {
    ::munmap(map, file_bytes);
    return invalid;
  }

  ::madvise(map, file_bytes, MADV_RANDOM);

  MmapStore store;
  store.data_ = reinterpret_cast<const float*>(
      static_cast<const char*>(map) + header.payload_offset);
  store.rows_ = header.rows;
  store.cols_ = header.cols;
  const size_t charge = std::min(kResidentChargeBytes, store.logical_bytes());
  MemoryTracker::Global().Add(charge);
  store.mapping_ = std::unique_ptr<void, Unmapper>(map, {file_bytes, charge});
  return store;
}

Status MmapStore::Write(const Matrix& matrix, const std::string& path) {
  EM_ASSIGN_OR_RETURN(EmbfWriter writer,
                      EmbfWriter::Create(path, matrix.rows(), matrix.cols()));
  for (size_t r = 0; r < matrix.rows(); ++r) {
    EM_RETURN_NOT_OK(writer.Append(matrix.Row(r)));
  }
  return writer.Finish();
}

void MmapStore::Unmapper::operator()(void* addr) const {
  ::munmap(addr, bytes);
  MemoryTracker::Global().Sub(tracked_bytes);
}

Matrix MmapStore::AsMatrix() const {
  // Borrowed matrices are mutable views by API, but this buffer is mapped
  // PROT_READ: every legitimate consumer (similarity kernels, snapshots)
  // only reads. A write through this view faults instead of silently
  // corrupting the store.
  return Matrix::Borrowed(const_cast<float*>(data_), rows_, cols_);
}

void EmbfWriter::FileCloser::operator()(void* f) const {
  if (f != nullptr) std::fclose(static_cast<std::FILE*>(f));
}

Result<EmbfWriter> EmbfWriter::Create(const std::string& path, size_t rows,
                                      size_t cols) {
  if (cols == 0) {
    return Status::InvalidArgument("EMBF store needs cols >= 1");
  }
  // Never `path` itself: truncating it in place would take the pages out
  // from under any process that has it mapped (SIGBUS there).
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp" + std::to_string(::getpid()) + "-" +
                           std::to_string(next_temp.fetch_add(1));
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  std::FILE* f = fd < 0 ? nullptr : ::fdopen(fd, "wb");
  if (f == nullptr) {
    if (fd >= 0) {
      ::close(fd);
      std::remove(temp.c_str());
    }
    return Status::IoError("cannot create EMBF store: " + path);
  }
  EmbfWriter writer;
  writer.file_.reset(f);
  writer.path_ = path;
  writer.temp_path_ = temp;
  writer.rows_ = rows;
  writer.cols_ = cols;
  EM_RETURN_NOT_OK(WriteHeader(f, rows, cols, path));
  return writer;
}

EmbfWriter::~EmbfWriter() {
  if (file_ != nullptr) {  // never finished: `path_` was not touched
    file_.reset();
    std::remove(temp_path_.c_str());
  }
}

Status EmbfWriter::Append(std::span<const float> row) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EmbfWriter already finished");
  }
  if (row.size() != cols_) {
    return Status::InvalidArgument("EMBF row width mismatch: " + path_);
  }
  if (rows_written_ == rows_) {
    return Status::InvalidArgument("EMBF writer over-appended: " + path_);
  }
  std::FILE* f = static_cast<std::FILE*>(file_.get());
  if (std::fwrite(row.data(), sizeof(float), row.size(), f) != row.size()) {
    return Status::IoError("EMBF write failed: " + path_);
  }
  ++rows_written_;
  return Status::OK();
}

Status EmbfWriter::Finish() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EmbfWriter already finished");
  }
  std::FILE* f = static_cast<std::FILE*>(file_.get());
  const bool complete = rows_written_ == rows_;
  const bool flushed = std::fflush(f) == 0;
  file_.reset();
  if (!complete || !flushed) std::remove(temp_path_.c_str());
  if (!complete) {
    return Status::InvalidArgument(
        "EMBF writer finished after " + std::to_string(rows_written_) +
        " of " + std::to_string(rows_) + " rows: " + path_);
  }
  if (!flushed) {
    return Status::IoError("EMBF flush failed: " + path_);
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(temp_path_.c_str());
    return Status::IoError("cannot rename EMBF store into place: " + path_);
  }
  return Status::OK();
}

}  // namespace entmatcher

#include "la/matrix_io.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>

#include "la/mmap_store.h"

namespace entmatcher {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'A', 'T'};

/// The EMAT payload after its magic, read from the stream that sniffed it.
Result<Matrix> ReadEmat(std::ifstream& in, const std::string& path) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!in) return Status::IoError("truncated matrix header: " + path);
  // Sanity bound: refuse absurd shapes rather than bad_alloc.
  if (rows > (1ull << 32) || cols > (1ull << 24)) {
    return Status::IoError("implausible matrix shape in: " + path);
  }
  Matrix matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
  in.read(reinterpret_cast<char*>(matrix.data()),
          static_cast<std::streamsize>(matrix.ByteSize()));
  if (!in) return Status::IoError("truncated matrix data: " + path);
  return matrix;
}

/// A borrowed view over the mapped EMBF store that keeps the store alive.
Result<Matrix> MapEmbf(const std::string& path) {
  EM_ASSIGN_OR_RETURN(MmapStore opened, MmapStore::Open(path));
  auto store = std::make_shared<const MmapStore>(std::move(opened));
  Matrix view = store->AsMatrix();
  return Matrix::Borrowed(view.data(), view.rows(), view.cols(),
                          std::move(store));
}

}  // namespace

Status WriteMatrixBinary(const Matrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  const uint64_t rows = matrix.rows();
  const uint64_t cols = matrix.cols();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(matrix.data()),
            static_cast<std::streamsize>(matrix.ByteSize()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Matrix> ReadMatrixBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  Matrix matrix;
  if (in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    EM_ASSIGN_OR_RETURN(matrix, ReadEmat(in, path));
  } else if (in && std::memcmp(magic, kEmbfMagic, sizeof(kEmbfMagic)) == 0) {
    in.close();
    EM_ASSIGN_OR_RETURN(matrix, MapEmbf(path));
  } else {
    return Status::IoError("not an EMAT or EMBF matrix file: " + path);
  }
  EM_RETURN_NOT_OK(ValidateMatrixFinite(matrix, path));
  return matrix;
}

Status ValidateMatrixFinite(const Matrix& matrix, const std::string& context) {
  for (size_t r = 0; r < matrix.rows(); ++r) {
    auto row = matrix.Row(r);
    // NaN and ±inf are the floats whose exponent bits are all ones. OR that
    // test across the row with no branch, so the scan vectorizes; only a
    // row that fails is searched for its first bad column.
    constexpr uint32_t kExponent = 0x7f800000u;
    uint32_t non_finite = 0;
    for (const float value : row) {
      uint32_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      non_finite |= static_cast<uint32_t>((bits & kExponent) == kExponent);
    }
    if (non_finite == 0) continue;
    for (size_t c = 0; c < row.size(); ++c) {
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(
            "non-finite value at row " + std::to_string(r) + ", column " +
            std::to_string(c) + " in " + context);
      }
    }
  }
  return Status::OK();
}

}  // namespace entmatcher

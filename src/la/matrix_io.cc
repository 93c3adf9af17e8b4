#include "la/matrix_io.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/string_util.h"

namespace entmatcher {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'A', 'T'};

}  // namespace

Result<Matrix> ReadMatrixTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::vector<std::vector<float>> rows;
  std::string line;
  size_t width = 0;
  while (std::getline(in, line)) {
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    std::vector<float> row;
    for (std::string_view field : SplitString(stripped, '\t')) {
      float value = 0.0f;
      auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), value);
      if (ec != std::errc() || ptr != field.data() + field.size()) {
        return Status::IoError("bad float field '" + std::string(field) +
                               "' in " + path);
      }
      row.push_back(value);
    }
    if (width == 0) {
      width = row.size();
    } else if (row.size() != width) {
      return Status::IoError("ragged matrix rows in " + path);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Matrix();
  Matrix matrix = Matrix::FromRows(rows);
  EM_RETURN_NOT_OK(ValidateMatrixFinite(matrix, path));
  return matrix;
}

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
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not an EMAT matrix file: " + path);
  }
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
  EM_RETURN_NOT_OK(ValidateMatrixFinite(matrix, path));
  return matrix;
}

Status ValidateMatrixFinite(const Matrix& matrix, const std::string& context) {
  for (size_t r = 0; r < matrix.rows(); ++r) {
    auto row = matrix.Row(r);
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

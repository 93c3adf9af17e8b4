#ifndef ENTMATCHER_LA_MATRIX_IO_H_
#define ENTMATCHER_LA_MATRIX_IO_H_

#include <string>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// Writes a matrix in a compact binary format:
///   magic "EMAT" | uint64 rows | uint64 cols | float32 data (row-major).
Status WriteMatrixBinary(const Matrix& matrix, const std::string& path);

/// Reads an embedding matrix, telling the format by its 4-byte magic:
///   - "EMAT" (WriteMatrixBinary) is read into an owned heap matrix;
///   - "EMBF" (MmapStore::Write, la/mmap_store.h) is mapped read-only, and
///     the result is a borrowed view that co-owns the mapping, so the file
///     stays mapped until the last matrix moved from it dies.
/// Any other magic is refused. Both formats then pass ValidateMatrixFinite.
Result<Matrix> ReadMatrixBinary(const std::string& path);

/// Rejects non-finite entries (NaN/Inf) with kInvalidArgument naming the
/// first offending row and column. ReadMatrixBinary applies this before
/// returning: a NaN that slips into a similarity kernel poisons every
/// downstream score silently, so loads fail loudly instead. `context` labels
/// the source (typically the file path) in the error message.
Status ValidateMatrixFinite(const Matrix& matrix, const std::string& context);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_MATRIX_IO_H_

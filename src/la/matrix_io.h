#ifndef ENTMATCHER_LA_MATRIX_IO_H_
#define ENTMATCHER_LA_MATRIX_IO_H_

#include <string>

#include "common/status.h"
#include "la/matrix.h"

namespace entmatcher {

/// Reads a TSV matrix (one row per line, tab-separated floats) — the
/// interchange format embedding toolkits like OpenEA/EAkit emit, so
/// externally trained embeddings can be fed into the matching pipeline. All
/// rows must have the same width.
Result<Matrix> ReadMatrixTsv(const std::string& path);

/// Writes a matrix in a compact binary format:
///   magic "EMAT" | uint64 rows | uint64 cols | float32 data (row-major).
Status WriteMatrixBinary(const Matrix& matrix, const std::string& path);

/// Reads the binary format written by WriteMatrixBinary.
Result<Matrix> ReadMatrixBinary(const std::string& path);

/// Rejects non-finite entries (NaN/Inf) with kInvalidArgument naming the
/// first offending row and column. Both readers apply this before returning:
/// a NaN that slips into a similarity kernel poisons every downstream score
/// silently, so loads fail loudly instead. `context` labels the source
/// (typically the file path) in the error message.
Status ValidateMatrixFinite(const Matrix& matrix, const std::string& context);

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_MATRIX_IO_H_

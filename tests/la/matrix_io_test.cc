#include "la/matrix_io.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include <gtest/gtest.h>

#include "la/mmap_store.h"

namespace entmatcher {
namespace {

class MatrixIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("entmatcher_mio_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(MatrixIoTest, BinaryRoundTripIsExact) {
  Matrix m(37, 19);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      m.At(r, c) = static_cast<float>(r * 100 + c) * 0.37f;
    }
  }
  ASSERT_TRUE(WriteMatrixBinary(m, Path("m.emat")).ok());
  auto loaded = ReadMatrixBinary(Path("m.emat"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 0.0f));
}

// One reader for both formats: the same matrix written as EMAT and as EMBF
// reads back to the same bits, onto the heap from EMAT and as a borrowed
// view over the mapping from EMBF.
TEST_F(MatrixIoTest, EmatAndEmbfReadBackBitIdentical) {
  Matrix m(41, 7);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      m.At(r, c) = static_cast<float>(r * 31 + c) * -0.173f;
    }
  }
  ASSERT_TRUE(WriteMatrixBinary(m, Path("m.emat")).ok());
  ASSERT_TRUE(MmapStore::Write(m, Path("m.embf")).ok());
  Result<Matrix> emat = ReadMatrixBinary(Path("m.emat"));
  Result<Matrix> embf = ReadMatrixBinary(Path("m.embf"));
  ASSERT_TRUE(emat.ok()) << emat.status().ToString();
  ASSERT_TRUE(embf.ok()) << embf.status().ToString();
  EXPECT_FALSE(emat->borrowed());
  EXPECT_TRUE(embf->borrowed());
  for (const Matrix* read : {&*emat, &*embf}) {
    ASSERT_EQ(read->rows(), m.rows());
    ASSERT_EQ(read->cols(), m.cols());
    EXPECT_EQ(std::memcmp(read->data(), m.data(), m.ByteSize()), 0);
  }
  // A copy detaches from the mapping into owned memory.
  const Matrix copy = *embf;
  EXPECT_FALSE(copy.borrowed());
  EXPECT_EQ(std::memcmp(copy.data(), m.data(), m.ByteSize()), 0);
}

TEST_F(MatrixIoTest, BinaryRejectsWrongMagic) {
  std::ofstream(Path("bad.emat"), std::ios::binary) << "NOPE1234567890123456";
  EXPECT_FALSE(ReadMatrixBinary(Path("bad.emat")).ok());
}

TEST_F(MatrixIoTest, BinaryRejectsTruncated) {
  Matrix m(4, 4);
  ASSERT_TRUE(WriteMatrixBinary(m, Path("t.emat")).ok());
  // Truncate the file.
  std::filesystem::resize_file(Path("t.emat"), 24);
  EXPECT_FALSE(ReadMatrixBinary(Path("t.emat")).ok());
}

TEST_F(MatrixIoTest, BinaryRejectsTruncatedEmbf) {
  Matrix m(4, 4);
  ASSERT_TRUE(MmapStore::Write(m, Path("t.embf")).ok());
  // Cut inside the payload, then inside the header.
  std::filesystem::resize_file(Path("t.embf"), kEmbfHeaderBytes + 20);
  EXPECT_FALSE(ReadMatrixBinary(Path("t.embf")).ok());
  std::filesystem::resize_file(Path("t.embf"), 24);
  EXPECT_FALSE(ReadMatrixBinary(Path("t.embf")).ok());
}

TEST_F(MatrixIoTest, MissingFilesFail) {
  EXPECT_FALSE(ReadMatrixBinary(Path("nope.emat")).ok());
}

// Non-finite embeddings would silently poison every downstream similarity
// (NaN compares false, so a poisoned row "matches" nothing or everything
// depending on the kernel) — the reader must refuse them at the door, in
// either format, and say exactly where the bad value sits.
TEST_F(MatrixIoTest, BinaryRejectsNonFiniteNamingRowAndColumn) {
  Matrix m(3, 2);
  m.At(2, 1) = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(WriteMatrixBinary(m, Path("nan.emat")).ok());
  Result<Matrix> loaded = ReadMatrixBinary(Path("nan.emat"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("row 2, column 1"),
            std::string::npos)
      << loaded.status().ToString();

  Matrix inf(4, 3);
  inf.At(1, 2) = -std::numeric_limits<float>::infinity();
  ASSERT_TRUE(MmapStore::Write(inf, Path("inf.embf")).ok());
  Result<Matrix> mapped = ReadMatrixBinary(Path("inf.embf"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("row 1, column 2"),
            std::string::npos)
      << mapped.status().ToString();
}

TEST_F(MatrixIoTest, ValidateMatrixFiniteAcceptsCleanMatrix) {
  Matrix m = Matrix::FromRows({{1.0f, -2.0f}, {0.0f, 3.5f}});
  EXPECT_TRUE(ValidateMatrixFinite(m, "test").ok());
}

// The scan tests whole rows before it looks for a column: a bad value in
// the last column of a row 19 wide, past its last whole block of 16, is
// still found and named.
TEST_F(MatrixIoTest, ValidateMatrixFiniteNamesTheLastColumnOfAnOddRow) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    Matrix m(3, 19);
    m.At(1, 18) = bad;
    const Status status = ValidateMatrixFinite(m, "test");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "non-finite value at row 1, column 18 in test");
  }
}

// Only an all-ones exponent is refused: signed zeros, subnormals and the
// largest finite magnitudes pass.
TEST_F(MatrixIoTest, ValidateMatrixFiniteAcceptsEveryFiniteExtreme) {
  const float extremes[] = {-0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 2.0f,
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max()};
  Matrix m(2, 19);
  for (size_t c = 0; c < m.cols(); ++c) {
    m.At(0, c) = extremes[c % std::size(extremes)];
    m.At(1, c) = extremes[(c + 3) % std::size(extremes)];
  }
  EXPECT_TRUE(ValidateMatrixFinite(m, "test").ok());
}

}  // namespace
}  // namespace entmatcher

#include "la/matrix_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

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

TEST_F(MatrixIoTest, TsvRoundTrip) {
  Matrix m = Matrix::FromRows({{1.5f, -2.25f}, {0.0f, 1e-3f}});
  std::ofstream(Path("m.tsv")) << "1.5\t-2.25\n0\t0.001\n";
  auto loaded = ReadMatrixTsv(Path("m.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 1e-6f));
}

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

TEST_F(MatrixIoTest, TsvRejectsRaggedRows) {
  std::ofstream(Path("bad.tsv")) << "1\t2\n3\n";
  EXPECT_FALSE(ReadMatrixTsv(Path("bad.tsv")).ok());
}

TEST_F(MatrixIoTest, TsvRejectsNonNumeric) {
  std::ofstream(Path("bad2.tsv")) << "1\tx\n";
  EXPECT_FALSE(ReadMatrixTsv(Path("bad2.tsv")).ok());
}

TEST_F(MatrixIoTest, EmptyTsvIsEmptyMatrix) {
  std::ofstream(Path("empty.tsv")) << "";
  auto loaded = ReadMatrixTsv(Path("empty.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
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

TEST_F(MatrixIoTest, MissingFilesFail) {
  EXPECT_FALSE(ReadMatrixTsv(Path("nope.tsv")).ok());
  EXPECT_FALSE(ReadMatrixBinary(Path("nope.emat")).ok());
}

// Non-finite embeddings would silently poison every downstream similarity
// (NaN compares false, so a poisoned row "matches" nothing or everything
// depending on the kernel) — both readers must refuse them at the door and
// say exactly where the bad value sits.
TEST_F(MatrixIoTest, TsvRejectsNonFiniteNamingRowAndColumn) {
  std::ofstream(Path("nan.tsv")) << "1\t2\n3\tnan\n";
  Result<Matrix> loaded = ReadMatrixTsv(Path("nan.tsv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("row 1, column 1"),
            std::string::npos)
      << loaded.status().ToString();

  std::ofstream(Path("inf.tsv")) << "inf\t2\n";
  Result<Matrix> inf_loaded = ReadMatrixTsv(Path("inf.tsv"));
  ASSERT_FALSE(inf_loaded.ok());
  EXPECT_EQ(inf_loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inf_loaded.status().message().find("row 0, column 0"),
            std::string::npos);
}

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
}

TEST_F(MatrixIoTest, ValidateMatrixFiniteAcceptsCleanMatrix) {
  Matrix m = Matrix::FromRows({{1.0f, -2.0f}, {0.0f, 3.5f}});
  EXPECT_TRUE(ValidateMatrixFinite(m, "test").ok());
}

}  // namespace
}  // namespace entmatcher

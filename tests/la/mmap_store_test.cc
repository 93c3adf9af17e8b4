// EMBF1 / MmapStore tests: bitwise round trips, header validation, writer
// misuse, MemoryTracker resident-charge accounting, the lifetime of a
// mapping read through ReadMatrixBinary, and the load-bearing property of
// the whole out-of-core path — an engine fed borrowed mmap matrices scores
// bit-identically to one fed heap copies.

#include "la/mmap_store.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "datagen/embf_synth.h"
#include "la/matrix_io.h"
#include "la/similarity.h"
#include "matching/engine.h"
#include "serve/server.h"

namespace entmatcher {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(MmapStoreTest, RoundTripIsBitwise) {
  const Matrix original = RandomMatrix(37, 12, 301);
  const std::string path = TempPath("round_trip.embf");
  ASSERT_TRUE(MmapStore::Write(original, path).ok());

  Result<MmapStore> store = MmapStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->rows(), 37u);
  EXPECT_EQ(store->cols(), 12u);
  EXPECT_EQ(store->logical_bytes(), original.ByteSize());

  const Matrix view = store->AsMatrix();
  ASSERT_EQ(view.rows(), original.rows());
  ASSERT_EQ(view.cols(), original.cols());
  EXPECT_EQ(std::memcmp(view.data(), original.data(), original.ByteSize()),
            0);
  for (size_t r = 0; r < original.rows(); ++r) {
    auto row = view.Row(r);
    ASSERT_EQ(row.size(), original.cols());
    EXPECT_EQ(std::memcmp(row.data(), original.Row(r).data(),
                          original.cols() * sizeof(float)),
              0);
  }
  std::remove(path.c_str());
}

TEST(MmapStoreTest, WriterEnforcesTheDeclaredShape) {
  const std::string path = TempPath("writer_misuse.embf");
  EXPECT_FALSE(EmbfWriter::Create(path, 4, 0).ok());

  const std::vector<float> narrow = {1.0f, 2.0f};
  const std::vector<float> row = {1.0f, 2.0f, 3.0f};

  // Finish is terminal: an incomplete writer fails it AND becomes inert.
  {
    Result<EmbfWriter> incomplete = EmbfWriter::Create(path, 2, 3);
    ASSERT_TRUE(incomplete.ok());
    ASSERT_TRUE(incomplete->Append(row).ok());
    EXPECT_FALSE(incomplete->Finish().ok());  // one row short
    EXPECT_FALSE(incomplete->Append(row).ok());
    EXPECT_FALSE(incomplete->Finish().ok());
  }

  Result<EmbfWriter> writer = EmbfWriter::Create(path, 2, 3);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE(writer->Append(narrow).ok());  // wrong width
  ASSERT_TRUE(writer->Append(row).ok());
  ASSERT_TRUE(writer->Append(row).ok());
  EXPECT_FALSE(writer->Append(row).ok());  // over-append
  EXPECT_EQ(writer->rows_written(), 2u);
  ASSERT_TRUE(writer->Finish().ok());

  Result<MmapStore> store = MmapStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->rows(), 2u);
  EXPECT_EQ(store->cols(), 3u);
  std::remove(path.c_str());
}

TEST(MmapStoreTest, OpenRejectsCorruptFiles) {
  EXPECT_FALSE(MmapStore::Open(TempPath("does_not_exist.embf")).ok());

  const Matrix m = RandomMatrix(9, 5, 311);
  const std::string good = TempPath("good.embf");
  ASSERT_TRUE(MmapStore::Write(m, good).ok());
  const std::string bytes = FileBytes(good);
  ASSERT_GT(bytes.size(), kEmbfHeaderBytes);

  const std::string bad = TempPath("bad.embf");
  {  // header shorter than the fixed 64 bytes
    WriteBytes(bad, bytes.substr(0, 20));
    EXPECT_FALSE(MmapStore::Open(bad).ok());
  }
  {  // wrong magic
    std::string mutated = bytes;
    mutated[0] = 'X';
    WriteBytes(bad, mutated);
    EXPECT_FALSE(MmapStore::Open(bad).ok());
  }
  {  // unknown format version
    std::string mutated = bytes;
    mutated[4] = 9;
    WriteBytes(bad, mutated);
    EXPECT_FALSE(MmapStore::Open(bad).ok());
  }
  {  // payload truncated mid-row
    WriteBytes(bad, bytes.substr(0, bytes.size() - 7));
    EXPECT_FALSE(MmapStore::Open(bad).ok());
  }
  {  // payload offset pointing past the file
    std::string mutated = bytes;
    const uint64_t offset = mutated.size() + 64;
    std::memcpy(&mutated[28], &offset, sizeof(offset));
    WriteBytes(bad, mutated);
    EXPECT_FALSE(MmapStore::Open(bad).ok());
  }
  std::remove(bad.c_str());
  std::remove(good.c_str());
}

// The tracker charge is the 64 MB resident charge capped at the logical
// size — never the logical size of a store bigger than 64 MB — and it is
// released (exactly once, despite moves) when the store dies.
TEST(MmapStoreTest, TrackerChargesResidentBudgetNotLogicalBytes) {
  const Matrix m = RandomMatrix(64, 16, 321);  // 4 KB logical
  const std::string path = TempPath("tracked.embf");
  ASSERT_TRUE(MmapStore::Write(m, path).ok());
  const size_t logical = m.ByteSize();

  MemoryTracker& tracker = MemoryTracker::Global();
  const size_t before = tracker.stats().current_bytes;
  {
    Result<MmapStore> store = MmapStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->tracked_bytes(), logical);
    EXPECT_EQ(tracker.stats().current_bytes, before + logical);

    MmapStore moved = std::move(store).value();
    EXPECT_EQ(moved.tracked_bytes(), logical);
    EXPECT_EQ(tracker.stats().current_bytes, before + logical);
  }
  EXPECT_EQ(tracker.stats().current_bytes, before);

  // A store one row past 64 MB, as a sparse file: a header, then a
  // truncate to the declared size, so no payload byte is written or read.
  const size_t cols = 16;
  const size_t rows = MmapStore::kResidentChargeBytes / (cols * 4) + 1;
  std::string header(kEmbfHeaderBytes, '\0');
  std::memcpy(header.data(), kEmbfMagic, sizeof(kEmbfMagic));
  const uint64_t fields[4] = {kEmbfFormatVersion, rows, cols,
                              kEmbfHeaderBytes};
  std::memcpy(header.data() + sizeof(kEmbfMagic), fields, sizeof(fields));
  WriteBytes(path, header);
  std::filesystem::resize_file(path, kEmbfHeaderBytes + rows * cols * 4);
  {
    Result<MmapStore> store = MmapStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_GT(store->logical_bytes(), MmapStore::kResidentChargeBytes);
    EXPECT_EQ(store->tracked_bytes(), MmapStore::kResidentChargeBytes);
    EXPECT_EQ(tracker.stats().current_bytes,
              before + MmapStore::kResidentChargeBytes);
  }
  EXPECT_EQ(tracker.stats().current_bytes, before);
  std::remove(path.c_str());
}

// A pair read from EMBF owns its mappings: with the files unlinked and no
// MmapStore handle left here, a server holding the matrices answers every
// preset as one loaded from EMAT, and destroying it releases the stores'
// tracker charges.
TEST(MmapStoreTest, MappedPairLivesAsLongAsTheServerHoldingIt) {
  const Matrix src = RandomMatrix(24, 16, 351);
  const Matrix tgt = RandomMatrix(30, 16, 352);
  const std::string emat_src = TempPath("lifetime_src.emat");
  const std::string emat_tgt = TempPath("lifetime_tgt.emat");
  const std::string embf_src = TempPath("lifetime_src.embf");
  const std::string embf_tgt = TempPath("lifetime_tgt.embf");
  ASSERT_TRUE(WriteMatrixBinary(src, emat_src).ok());
  ASSERT_TRUE(WriteMatrixBinary(tgt, emat_tgt).ok());
  ASSERT_TRUE(MmapStore::Write(src, embf_src).ok());
  ASSERT_TRUE(MmapStore::Write(tgt, embf_tgt).ok());

  MemoryTracker& tracker = MemoryTracker::Global();
  const size_t baseline = tracker.stats().current_bytes;
  const auto load = [](const std::string& src_path,
                       const std::string& tgt_path) {
    Result<Matrix> s = ReadMatrixBinary(src_path);
    Result<Matrix> t = ReadMatrixBinary(tgt_path);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    MatchServerConfig config;
    config.serve_workers = 1;
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok());
    EXPECT_TRUE((*server)
                    ->LoadPair("default", std::move(s).value(),
                               std::move(t).value())
                    .ok());
    EXPECT_TRUE((*server)->Start().ok());
    return std::move(server).value();
  };
  std::unique_ptr<MatchServer> heap = load(emat_src, emat_tgt);
  std::unique_ptr<MatchServer> mapped = load(embf_src, embf_tgt);
  for (const std::string& p : {emat_src, emat_tgt, embf_src, embf_tgt}) {
    ASSERT_EQ(std::remove(p.c_str()), 0);
  }

  for (const AlgorithmPreset preset :
       {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls,
        AlgorithmPreset::kRinf, AlgorithmPreset::kRinfWr,
        AlgorithmPreset::kRinfPb, AlgorithmPreset::kSinkhorn,
        AlgorithmPreset::kHungarian, AlgorithmPreset::kStableMatch}) {
    SCOPED_TRACE(PresetName(preset));
    ServeRequest request;
    request.options = MakePreset(preset);
    const ServeResponse want = heap->Query(request);
    const ServeResponse got = mapped->Query(request);
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.assignment.target_of_source,
              want.assignment.target_of_source);
  }
  heap->Shutdown();
  mapped->Shutdown();
  heap.reset();
  mapped.reset();
  EXPECT_EQ(tracker.stats().current_bytes, baseline);
}

// Rewriting a mapped file replaces it by rename: the reader's mapping keeps
// the old inode, so it reads its old bytes (a rewrite in place truncated the
// file under the mapping, and the next read of a lost page was SIGBUS).
TEST(MmapStoreTest, RewriteLeavesALiveMappingItsOldBytes) {
  const Matrix old_bytes = RandomMatrix(512, 16, 361);  // 8 pages of floats
  const Matrix new_bytes = RandomMatrix(3, 5, 362);
  const std::string path = TempPath("rewritten.embf");
  ASSERT_TRUE(MmapStore::Write(old_bytes, path).ok());
  Result<Matrix> mapped = ReadMatrixBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_TRUE(MmapStore::Write(new_bytes, path).ok());
  ASSERT_EQ(mapped->rows(), old_bytes.rows());
  // Last row first: it lies on a page past the new file's end.
  for (size_t r = old_bytes.rows(); r-- > 0;) {
    ASSERT_EQ(std::memcmp(mapped->Row(r).data(), old_bytes.Row(r).data(),
                          old_bytes.cols() * sizeof(float)),
              0)
        << "row " << r;
  }
  Result<Matrix> reread = ReadMatrixBinary(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->rows(), new_bytes.rows());
  ASSERT_EQ(reread->cols(), new_bytes.cols());
  EXPECT_EQ(std::memcmp(reread->data(), new_bytes.data(), new_bytes.ByteSize()),
            0);
  std::remove(path.c_str());
}

// A writer that fails or is dropped before Finish leaves the file it was
// replacing byte-identical, and no temporary behind.
TEST(MmapStoreTest, UnfinishedWriterLeavesTheOldFileUntouched) {
  const std::string dir = TempPath("unfinished_writer");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string path = dir + "/x.embf";
  ASSERT_TRUE(MmapStore::Write(RandomMatrix(8, 4, 371), path).ok());
  const std::string before = FileBytes(path);
  const std::vector<float> row = {1.0f, 2.0f, 3.0f, 4.0f};
  {
    Result<EmbfWriter> dropped = EmbfWriter::Create(path, 2, 4);
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE(dropped->Append(row).ok());
  }
  EXPECT_EQ(FileBytes(path), before);
  {
    Result<EmbfWriter> short_one = EmbfWriter::Create(path, 2, 4);
    ASSERT_TRUE(short_one.ok());
    ASSERT_TRUE(short_one->Append(row).ok());
    EXPECT_FALSE(short_one->Finish().ok());  // one row short
  }
  EXPECT_EQ(FileBytes(path), before);
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "x.embf");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

// The whole point of the out-of-core path: feeding the engine borrowed
// mmap-backed matrices changes where the bytes live, not a single bit of
// what it computes.
TEST(MmapStoreTest, EngineScoresBitIdenticalOverHeapAndMmap) {
  const Matrix src = RandomMatrix(25, 10, 341);
  const Matrix tgt = RandomMatrix(30, 10, 342);
  const std::string src_path = TempPath("engine_src.embf");
  const std::string tgt_path = TempPath("engine_tgt.embf");
  ASSERT_TRUE(MmapStore::Write(src, src_path).ok());
  ASSERT_TRUE(MmapStore::Write(tgt, tgt_path).ok());
  Result<MmapStore> src_store = MmapStore::Open(src_path);
  Result<MmapStore> tgt_store = MmapStore::Open(tgt_path);
  ASSERT_TRUE(src_store.ok());
  ASSERT_TRUE(tgt_store.ok());

  const MatchOptions options = MakePreset(AlgorithmPreset::kCsls);
  Result<MatchEngine> heap_engine = MatchEngine::Create(src, tgt, options);
  Result<MatchEngine> mmap_engine = MatchEngine::Create(
      src_store->AsMatrix(), tgt_store->AsMatrix(), options);
  ASSERT_TRUE(heap_engine.ok());
  ASSERT_TRUE(mmap_engine.ok());

  Result<Matrix> heap_scores = heap_engine->TransformedScores(options);
  Result<Matrix> mmap_scores = mmap_engine->TransformedScores(options);
  ASSERT_TRUE(heap_scores.ok());
  ASSERT_TRUE(mmap_scores.ok());
  EXPECT_EQ(std::memcmp(heap_scores->data(), mmap_scores->data(),
                        heap_scores->ByteSize()),
            0);

  Result<Assignment> heap_match = heap_engine->Match();
  Result<Assignment> mmap_match = mmap_engine->Match();
  ASSERT_TRUE(heap_match.ok());
  ASSERT_TRUE(mmap_match.ok());
  EXPECT_EQ(heap_match->target_of_source, mmap_match->target_of_source);

  std::remove(src_path.c_str());
  std::remove(tgt_path.c_str());
}

// The synthetic generator is a pure function of its options: regenerating
// produces byte-identical files, rows are unit-norm, and source row r stays
// nearest to target row r (the property recall benchmarks lean on).
TEST(MmapStoreTest, SynthPairIsDeterministicAndAligned) {
  EmbfSynthOptions options;
  options.rows = 120;
  options.dim = 16;
  options.clusters = 8;
  options.seed = 99;
  const std::string src_a = TempPath("synth_src_a.embf");
  const std::string tgt_a = TempPath("synth_tgt_a.embf");
  const std::string src_b = TempPath("synth_src_b.embf");
  const std::string tgt_b = TempPath("synth_tgt_b.embf");
  ASSERT_TRUE(SynthEmbfPair(options, src_a, tgt_a).ok());
  ASSERT_TRUE(SynthEmbfPair(options, src_b, tgt_b).ok());
  EXPECT_EQ(FileBytes(src_a), FileBytes(src_b));
  EXPECT_EQ(FileBytes(tgt_a), FileBytes(tgt_b));

  Result<MmapStore> src = MmapStore::Open(src_a);
  Result<MmapStore> tgt = MmapStore::Open(tgt_a);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  ASSERT_EQ(src->rows(), options.rows);
  ASSERT_EQ(tgt->cols(), options.dim);
  const Matrix src_view = src->AsMatrix();
  for (size_t r = 0; r < src->rows(); ++r) {
    double sq = 0.0;
    for (float v : src_view.Row(r)) sq += static_cast<double>(v) * v;
    EXPECT_NEAR(sq, 1.0, 1e-4) << "source row " << r << " not unit-norm";
  }

  Result<Matrix> sims = ComputeSimilarity(
      src->AsMatrix(), tgt->AsMatrix(), SimilarityMetric::kCosine);
  ASSERT_TRUE(sims.ok());
  size_t identity_argmax = 0;
  for (size_t i = 0; i < src->rows(); ++i) {
    size_t argmax = 0;
    for (size_t j = 1; j < tgt->rows(); ++j) {
      if (sims->At(i, j) > sims->At(i, argmax)) argmax = j;
    }
    identity_argmax += (argmax == i);
  }
  EXPECT_GE(identity_argmax, options.rows * 9 / 10);

  for (const std::string& p : {src_a, tgt_a, src_b, tgt_b}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace entmatcher

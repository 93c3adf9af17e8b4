// Chaos suite: drives real fault plans through the engine, workspace, index
// and socket layers (ctest label `chaos`). The golden invariants, whatever
// the plan:
//   1. nothing crashes or deadlocks — every submitted request terminates,
//   2. every answer carries a definite Status (injected codes included),
//   3. submitted == admitted + rejected (stats never lose a request),
//   4. every *successful* response is bit-identical to a fault-free run.

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "index/candidate_index.h"
#include "la/mmap_store.h"
#include "la/sparse.h"
#include "matching/engine.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_server.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 16;

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

void Arm(const std::string& spec, uint64_t seed) {
  Result<FaultPlan> plan = FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjector::Global().Arm(std::move(plan).value(), seed);
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : source_(RandomEmbeddings(24, /*seed=*/5)),
        target_(RandomEmbeddings(30, /*seed=*/8)) {}

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// Fault-free reference answer; call BEFORE arming a plan.
  Assignment Reference(AlgorithmPreset preset) {
    EXPECT_FALSE(FaultInjector::Global().armed());
    Result<MatchEngine> engine = MatchEngine::Create(
        Matrix(source_), Matrix(target_), MakePreset(preset));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    Result<Assignment> assignment = engine->Match();
    EXPECT_TRUE(assignment.ok()) << assignment.status().ToString();
    return std::move(assignment).value();
  }

  std::unique_ptr<MatchServer> MakeServer(const MatchServerConfig& config,
                                          bool start) {
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    Status loaded =
        (*server)->LoadPair("default", Matrix(source_), Matrix(target_));
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    if (start) {
      EXPECT_TRUE((*server)->Start().ok());
    }
    return std::move(server).value();
  }

  static ServeRequest MatchRequest() {
    ServeRequest request;
    request.options = MakePreset(AlgorithmPreset::kCsls);
    return request;
  }

  /// Checks the stats ledger after a chaos run.
  static void CheckStatsLedger(const ServerStatsSnapshot& stats) {
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.admitted,
              stats.completed + stats.failed + stats.timed_out);
    EXPECT_LE(stats.shed, stats.rejected);
    EXPECT_LE(stats.degraded, stats.admitted);
    EXPECT_EQ(stats.queue_depth, 0u);
  }

  Matrix source_;
  Matrix target_;
};

TEST_F(ChaosTest, EngineFaultsEveryRequestTerminatesDefinitely) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  MatchServerConfig config;
  config.queue_capacity = 64;
  config.max_batch = 4;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  Arm("engine.scores:p=0.3,code=Internal", /*seed=*/7);

  std::vector<std::future<ServeResponse>> inflight;
  for (size_t i = 0; i < 32; ++i) {
    inflight.push_back(server->Submit(MatchRequest()));
  }
  ASSERT_TRUE(server->Start().ok());

  size_t ok_count = 0;
  size_t injected = 0;
  for (std::future<ServeResponse>& f : inflight) {
    ServeResponse response = f.get();  // invariant 1: terminates
    if (response.status.ok()) {
      ++ok_count;
      // Invariant 4: a fault that didn't fire must not perturb the answer.
      EXPECT_EQ(response.assignment.target_of_source,
                reference.target_of_source);
    } else {
      // Invariant 2: the injected code, not some mangled state.
      EXPECT_EQ(response.status.code(), StatusCode::kInternal)
          << response.status.ToString();
      ++injected;
    }
  }
  server->Shutdown();
  EXPECT_EQ(ok_count + injected, 32u);
  CheckStatsLedger(server->Stats());
  EXPECT_EQ(server->Stats().failed, injected);
}

// Routed ranges run the row-local path: it keeps the engine.scores chaos
// point (an injected failure before the first range built the snapshot's
// column statistic leaves nothing behind; later ranges still answer the
// exact rows) and the stage-deadline check between similarity and
// transform.
TEST_F(ChaosTest, RangedQueriesKeepTheScoresFaultAndStageDeadline) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  const std::vector<int32_t> rows(reference.target_of_source.begin() + 4,
                                  reference.target_of_source.begin() + 9);
  MatchServerConfig config;
  config.queue_capacity = 64;
  config.max_batch = 4;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  Arm("engine.scores:p=0.3,code=Internal", /*seed=*/7);
  std::vector<std::future<ServeResponse>> inflight;
  for (size_t i = 0; i < 32; ++i) {
    ServeRequest ranged = MatchRequest();
    ranged.row_begin = 4;
    ranged.row_end = 9;
    inflight.push_back(server->Submit(std::move(ranged)));
  }
  ASSERT_TRUE(server->Start().ok());
  size_t ok_count = 0;
  for (std::future<ServeResponse>& f : inflight) {
    ServeResponse response = f.get();
    if (response.status.ok()) {
      ++ok_count;
      EXPECT_EQ(response.assignment.target_of_source, rows);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kInternal)
          << response.status.ToString();
    }
  }
  EXPECT_GT(ok_count, 0u);
  EXPECT_EQ(server->Stats().failed, 32u - ok_count);
  EXPECT_GT(server->Stats().failed, 0u);  // the plan fired

  Arm("engine.scores:p=1,latency_us=30000", /*seed=*/3);
  ServeRequest doomed = MatchRequest();
  doomed.row_begin = 9;
  doomed.row_end = 20;
  doomed.timeout_micros = 5000;  // 5 ms deadline vs a 30 ms injected stall
  EXPECT_EQ(server->Query(std::move(doomed)).status.code(),
            StatusCode::kDeadlineExceeded);
  server->Shutdown();
  CheckStatsLedger(server->Stats());
}

TEST_F(ChaosTest, WorkspaceExhaustionFailsCleanAndRecovers) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  Result<MatchEngine> engine = MatchEngine::Create(
      Matrix(source_), Matrix(target_), MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Match().ok());  // warm the arena fault-free

  Arm("workspace.acquire:p=0.5,max=4,code=ResourceExhausted", /*seed=*/11);
  size_t failures = 0;
  for (int i = 0; i < 16; ++i) {
    Result<Assignment> assignment = engine->Match();
    if (assignment.ok()) {
      EXPECT_EQ(assignment->target_of_source, reference.target_of_source);
    } else {
      EXPECT_EQ(assignment.status().code(), StatusCode::kResourceExhausted);
      // RAII leases: a mid-pipeline abort leaves nothing checked out.
      EXPECT_EQ(engine->workspace().in_use_bytes(), 0u);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0u);   // p=0.5 over many acquires really fired
  EXPECT_LE(failures, 4u);   // max=4 capped it

  // The plan is spent (max=4): the same warm engine serves clean again.
  Result<Assignment> recovered = engine->Match();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->target_of_source, reference.target_of_source);
}

TEST_F(ChaosTest, InjectedLatencyTripsDeadlineBetweenStages) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  Arm("engine.scores:p=1,latency_us=30000", /*seed=*/3);

  ServeRequest doomed = MatchRequest();
  doomed.timeout_micros = 5000;  // 5 ms deadline vs a 30 ms injected stall
  std::future<ServeResponse> doomed_future = server->Submit(std::move(doomed));
  std::future<ServeResponse> patient_future = server->Submit(MatchRequest());
  ASSERT_TRUE(server->Start().ok());

  ServeResponse expired = doomed_future.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  // The deadline-free rider on the same server still gets the exact answer —
  // injected latency delays, it must not corrupt.
  ServeResponse patient = patient_future.get();
  ASSERT_TRUE(patient.status.ok()) << patient.status.ToString();
  EXPECT_EQ(patient.assignment.target_of_source, reference.target_of_source);
  server->Shutdown();
  CheckStatsLedger(server->Stats());
}

TEST_F(ChaosTest, IndexLoadShortReadAndCorruptionAreCaught) {
  Result<CandidateIndex> built =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path =
      "/tmp/em_chaos_index_" + std::to_string(::getpid()) + ".eidx";
  ASSERT_TRUE(built->Save(path).ok());

  Arm("index.load.read:nth=1,code=IoError", /*seed=*/1);
  Result<CandidateIndex> short_read = CandidateIndex::Load(path);
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kIoError);

  // A flipped id bit must be caught by the loader's validation, not serve
  // garbage candidates later.
  Arm("index.load.corrupt:nth=1", /*seed=*/1);
  Result<CandidateIndex> corrupt = CandidateIndex::Load(path);
  EXPECT_FALSE(corrupt.ok());

  FaultInjector::Global().Disarm();
  Result<CandidateIndex> clean = CandidateIndex::Load(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->num_targets(), built->num_targets());
  ::unlink(path.c_str());
}

// Same fault points, graph backend: the EIDX2 loader must catch a short read
// and in-memory corruption (a flipped entry-point bit) for HNSW payloads too,
// then serve the exact saved graph once the plan is disarmed.
TEST_F(ChaosTest, HnswIndexLoadFaultsAreCaught) {
  CandidateIndexOptions options;
  options.backend = CandidateBackendKind::kHnsw;
  options.hnsw_max_links = 8;
  options.hnsw_ef_construction = 32;
  Result<CandidateIndex> built = CandidateIndex::Build(target_, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path =
      "/tmp/em_chaos_hnsw_" + std::to_string(::getpid()) + ".eidx";
  ASSERT_TRUE(built->Save(path).ok());

  Arm("index.load.read:nth=1,code=IoError", /*seed=*/1);
  Result<CandidateIndex> short_read = CandidateIndex::Load(path);
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kIoError);

  Arm("index.load.corrupt:nth=1", /*seed=*/1);
  Result<CandidateIndex> corrupt = CandidateIndex::Load(path);
  EXPECT_FALSE(corrupt.ok());

  FaultInjector::Global().Disarm();
  Result<CandidateIndex> clean = CandidateIndex::Load(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->backend(), CandidateBackendKind::kHnsw);
  Result<SparseScores> before = built->SparseSimilarity(
      source_, target_, SimilarityMetric::kCosine, 5, 1);
  Result<SparseScores> after = clean->SparseSimilarity(
      source_, target_, SimilarityMetric::kCosine, 5, 1);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->row_offsets(), after->row_offsets());
  EXPECT_EQ(std::memcmp(before->values(), after->values(),
                        before->nnz() * sizeof(float)),
            0);
  ::unlink(path.c_str());
}

// The out-of-core store's read fault point: a failed map surfaces as a
// definite IoError, and the very next attempt (fault spent) maps the same
// bytes the writer put down.
TEST_F(ChaosTest, MmapStoreLoadFaultIsCaughtThenRecovers) {
  const std::string path =
      "/tmp/em_chaos_embf_" + std::to_string(::getpid()) + ".embf";
  ASSERT_TRUE(MmapStore::Write(target_, path).ok());

  Arm("mmap.load.read:nth=1,code=IoError", /*seed=*/1);
  Result<MmapStore> faulted = MmapStore::Open(path);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);

  FaultInjector::Global().Disarm();
  Result<MmapStore> store = MmapStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const Matrix view = store->AsMatrix();
  EXPECT_EQ(std::memcmp(view.data(), target_.data(), target_.ByteSize()), 0);
  ::unlink(path.c_str());
}

TEST_F(ChaosTest, SocketChaosRetryingClientCompletesEveryCall) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  const std::string socket_path =
      "/tmp/em_chaos_sock_" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/true);
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server.get(), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Partial writes (forced 3-byte chunks), failed writes, and failed reads,
  // all capped so the run terminates; the retrying client must absorb every
  // mid-frame disconnect via reconnect.
  Arm("socket.write.chunk:p=0.5,arg=3;"
      "socket.write:nth=6,max=8,code=IoError;"
      "socket.read:nth=9,max=4,code=IoError",
      /*seed=*/23);

  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_micros = 200;
  policy.max_backoff_micros = 2000;
  policy.budget_micros = 10000000;

  WireRequest match;
  match.verb = WireRequest::Verb::kMatch;
  match.algorithm = AlgorithmPreset::kCsls;
  for (int call = 0; call < 6; ++call) {
    Result<WireResponse> wire = client->CallWithRetry(match, policy);
    ASSERT_TRUE(wire.ok()) << "call " << call << ": "
                           << wire.status().ToString();
    ASSERT_TRUE(wire->status.ok()) << "call " << call << ": "
                                   << wire->status.ToString();
    ASSERT_EQ(wire->values.size(), reference.target_of_source.size());
    for (size_t i = 0; i < wire->values.size(); ++i) {
      EXPECT_EQ(wire->values[i], reference.target_of_source[i]);
    }
  }
  EXPECT_GT(FaultInjector::Global().total_fires(), 0u);

  // Final verification runs fault-free.
  FaultInjector::Global().Disarm();
  Result<WireResponse> final_wire = client->CallWithRetry(match, policy);
  ASSERT_TRUE(final_wire.ok());
  ASSERT_TRUE(final_wire->status.ok());
  (*front)->Stop();
  server->Shutdown();
  CheckStatsLedger(server->Stats());
}

TEST_F(ChaosTest, ShedStormUnderFaultsKeepsTheLedgerExact) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  MatchServerConfig config;
  config.queue_capacity = 8;
  config.shed_watermark = 6;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  Arm("engine.scores:p=0.25,code=Internal", /*seed=*/19);

  // Stopped server: exactly shed_watermark requests are admitted, the other
  // 10 shed deterministically — then the workers drain under faults.
  std::vector<std::future<ServeResponse>> inflight;
  for (size_t i = 0; i < 16; ++i) {
    inflight.push_back(server->Submit(MatchRequest()));
  }
  ASSERT_TRUE(server->Start().ok());

  size_t ok_count = 0;
  size_t shed_count = 0;
  size_t injected = 0;
  for (std::future<ServeResponse>& f : inflight) {
    ServeResponse response = f.get();
    switch (response.status.code()) {
      case StatusCode::kOk:
        EXPECT_EQ(response.assignment.target_of_source,
                  reference.target_of_source);
        ++ok_count;
        break;
      case StatusCode::kUnavailable:
        EXPECT_GT(response.retry_after_micros, 0u);
        ++shed_count;
        break;
      case StatusCode::kInternal:
        ++injected;
        break;
      default:
        FAIL() << "unexpected status: " << response.status.ToString();
    }
  }
  server->Shutdown();

  EXPECT_EQ(ok_count + shed_count + injected, 16u);
  EXPECT_EQ(shed_count, 10u);  // 16 submitted into a watermark of 6
  const ServerStatsSnapshot stats = server->Stats();
  CheckStatsLedger(stats);
  EXPECT_EQ(stats.shed, shed_count);
  EXPECT_EQ(stats.failed, injected);
  EXPECT_EQ(stats.completed, ok_count);
}

TEST_F(ChaosTest, CombinedPlanUnderThirtyPercentHoldsAllInvariants) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  MatchServerConfig config;
  config.queue_capacity = 128;
  config.max_batch = 4;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/true);

  // Everything at once, every rate <= 30%: spurious engine errors, engine
  // stalls, and workspace exhaustion.
  Arm("engine.scores:p=0.2,code=Internal;"
      "engine.scores:p=0.15,latency_us=300;"
      "workspace.acquire:p=0.05,code=ResourceExhausted",
      /*seed=*/29);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 12;
  std::vector<std::thread> threads;
  std::vector<std::vector<ServeResponse>> responses(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        responses[t].push_back(server->Query(MatchRequest()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server->Shutdown();

  size_t ok_count = 0;
  for (const std::vector<ServeResponse>& per_thread : responses) {
    for (const ServeResponse& response : per_thread) {
      if (response.status.ok()) {
        EXPECT_EQ(response.assignment.target_of_source,
                  reference.target_of_source);
        ++ok_count;
      } else {
        // Definite, expected codes only — nothing mangled, nothing hung.
        const StatusCode code = response.status.code();
        EXPECT_TRUE(code == StatusCode::kInternal ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kUnavailable)
            << response.status.ToString();
      }
    }
  }
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  CheckStatsLedger(stats);
  EXPECT_GT(ok_count, 0u);  // 30% chaos must not starve the service
  EXPECT_GT(FaultInjector::Global().total_fires(), 0u);
}

TEST_F(ChaosTest, FailedSnapshotPublishLeavesOldVersionServing) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  MatchServerConfig config;
  config.serve_workers = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/true);

  // Every publish attempt fails at the swap point; the already-published v1
  // must keep serving, bit-identical, as if the swap was never attempted.
  Arm("snapshot.publish:p=1.0,code=Unavailable", /*seed=*/31);
  Result<uint64_t> swapped = server->SwapPair(
      "default", RandomEmbeddings(24, 101), RandomEmbeddings(30, 202));
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server->Stats().snapshot_swaps, 0u);
  ASSERT_NE(server->CurrentSnapshot("default"), nullptr);
  EXPECT_EQ(server->CurrentSnapshot("default")->version(), 1u);

  ServeResponse response = server->Query(MatchRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.snapshot_version, 1u);
  EXPECT_EQ(response.assignment.target_of_source, reference.target_of_source);

  // Disarm: the retried swap goes through and v2 serves.
  FaultInjector::Global().Disarm();
  Result<uint64_t> retried = server->SwapPair(
      "default", RandomEmbeddings(24, 101), RandomEmbeddings(30, 202));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2u);
  ServeResponse fresh = server->Query(MatchRequest());
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.snapshot_version, 2u);
  server->Shutdown();
}

// The shed storm of ShedStormUnderFaultsKeepsTheLedgerExact, at a full
// 8-worker pool: whatever the interleaving of shedding, injected engine
// faults, and worker dispatch, every submitted request terminates with a
// definite status and the ledger stays exact.
TEST_F(ChaosTest, EightWorkerShedStormTerminatesDefinitely) {
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  MatchServerConfig config;
  config.queue_capacity = 8;
  config.shed_watermark = 6;
  config.serve_workers = 8;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  EXPECT_EQ(server->serve_workers(), 8u);
  Arm("engine.scores:p=0.25,code=Internal", /*seed=*/37);

  std::vector<std::future<ServeResponse>> inflight;
  for (size_t i = 0; i < 16; ++i) {
    inflight.push_back(server->Submit(MatchRequest()));
  }
  ASSERT_TRUE(server->Start().ok());

  size_t ok_count = 0;
  size_t shed_count = 0;
  size_t injected = 0;
  for (std::future<ServeResponse>& f : inflight) {
    ServeResponse response = f.get();
    switch (response.status.code()) {
      case StatusCode::kOk:
        EXPECT_EQ(response.assignment.target_of_source,
                  reference.target_of_source);
        ++ok_count;
        break;
      case StatusCode::kUnavailable:
        ++shed_count;
        break;
      case StatusCode::kInternal:
        ++injected;
        break;
      default:
        FAIL() << "unexpected status: " << response.status.ToString();
    }
  }
  server->Shutdown();

  EXPECT_EQ(ok_count + shed_count + injected, 16u);
  EXPECT_EQ(shed_count, 10u);
  const ServerStatsSnapshot stats = server->Stats();
  CheckStatsLedger(stats);
  EXPECT_EQ(stats.failed, injected);
  EXPECT_EQ(stats.completed, ok_count);
}

// Three ~10% plans (an injected error in the scores pass, an exhausted
// workspace, injected latency) against a burst from four clients, with
// batching off (max_batch 1) and on (max_batch 8, 2 ms flush). Whatever
// fires, every request resolves, OK answers are the fault-free ones, each
// failure carries the plan's code, the ledger balances, and batched mode
// still shares scores passes.
TEST_F(ChaosTest, FaultPlansKeepAnswersExactWithAndWithoutBatching) {
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 8;
  const Assignment reference = Reference(AlgorithmPreset::kCsls);
  struct PlanCase {
    const char* spec;
    StatusCode code;  // what a failure must carry; kOk: nothing may fail
  };
  const PlanCase plans[] = {
      {"engine.scores:p=0.1,code=Internal", StatusCode::kInternal},
      {"workspace.acquire:p=0.1,code=ResourceExhausted",
       StatusCode::kResourceExhausted},
      {"engine.scores:p=0.1,latency_us=200", StatusCode::kOk},
  };
  for (const PlanCase& plan : plans) {
    SCOPED_TRACE(plan.spec);
    uint64_t batches[2] = {0, 0};  // [sequential, batched]
    uint64_t fires = 0;
    for (int batched = 0; batched < 2; ++batched) {
      MatchServerConfig config;
      config.max_batch = batched ? 8 : 1;
      config.flush_micros = batched ? 2000 : 0;
      config.queue_capacity = 2 * kClients * kQueriesPerClient;
      std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
      Arm(plan.spec, /*seed=*/7);

      // Every client submits its burst before Start, so the queue holds
      // coalescable work when the first worker collects.
      std::vector<std::vector<std::future<ServeResponse>>> inflight(kClients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&server, &inflight, c] {
          for (size_t q = 0; q < kQueriesPerClient; ++q) {
            inflight[c].push_back(server->Submit(MatchRequest()));
          }
        });
      }
      for (std::thread& client : clients) client.join();
      ASSERT_TRUE(server->Start().ok());

      for (std::vector<std::future<ServeResponse>>& futures : inflight) {
        for (std::future<ServeResponse>& future : futures) {
          const ServeResponse response = future.get();
          if (response.status.ok()) {
            EXPECT_EQ(response.assignment.target_of_source,
                      reference.target_of_source);
          } else {
            EXPECT_NE(plan.code, StatusCode::kOk)
                << "the latency plan failed a request: "
                << response.status.ToString();
            EXPECT_EQ(response.status.code(), plan.code)
                << response.status.ToString();
          }
        }
      }
      server->Shutdown();
      fires += FaultInjector::Global().total_fires();
      FaultInjector::Global().Disarm();
      CheckStatsLedger(server->Stats());
      batches[batched] = server->Stats().batches;
    }
    EXPECT_LT(batches[1], batches[0]) << "batching shared no scores pass";
    EXPECT_GT(fires, 0u) << "the plan never fired";
  }
}

TEST_F(ChaosTest, HealthJsonCarriesTheArmedFingerprint) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/true);
  Arm("engine.scores:p=0.1,code=Internal", /*seed=*/42);
  const std::string health = server->HealthJson();
  const std::string fingerprint = FaultInjector::Global().Fingerprint();
  EXPECT_NE(fingerprint, "off");
  EXPECT_NE(health.find(fingerprint), std::string::npos) << health;
  server->Shutdown();
}

}  // namespace
}  // namespace entmatcher

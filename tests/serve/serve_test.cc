// MatchServer behavior tests: admission control (unknown pair, RL, topk=0,
// workspace budget, queue full, shut down), deadline expiry, micro-batch
// composition (shared scores passes, mixed signatures), stats invariants,
// the socket front end, and the headline contract — results served to
// concurrent clients are bit-identical to sequential one-shot
// MatchEngine queries (this file runs under TSan in CI).

#include "serve/server.h"

#include <pthread.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "index/candidate_index.h"
#include "la/topk.h"
#include "matching/engine.h"
#include "serve/client.h"
#include "serve/protocol.h"
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

/// Cheap presets whose signatures differ — the batching key material.
std::vector<AlgorithmPreset> MixedPresets() {
  return {AlgorithmPreset::kCsls, AlgorithmPreset::kDInf,
          AlgorithmPreset::kSinkhorn, AlgorithmPreset::kStableMatch};
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : source_(RandomEmbeddings(24, /*seed=*/5)),
        target_(RandomEmbeddings(30, /*seed=*/8)) {}

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// A ready server with `source_`/`target_` loaded as "default".
  std::unique_ptr<MatchServer> MakeServer(const MatchServerConfig& config,
                                          bool start = true) {
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    Status loaded =
        (*server)->LoadPair("default", Matrix(source_), Matrix(target_));
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    if (start) {
      Status started = (*server)->Start();
      EXPECT_TRUE(started.ok()) << started.ToString();
    }
    return std::move(server).value();
  }

  /// One-shot engine answer for `preset` over the same pair.
  Assignment SoloMatch(AlgorithmPreset preset) {
    Result<MatchEngine> engine =
        MatchEngine::Create(Matrix(source_), Matrix(target_),
                            MakePreset(preset));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    Result<Assignment> assignment = engine->Match();
    EXPECT_TRUE(assignment.ok()) << assignment.status().ToString();
    return std::move(assignment).value();
  }

  static ServeRequest MatchRequest(AlgorithmPreset preset) {
    ServeRequest request;
    request.options = MakePreset(preset);
    return request;
  }

  /// Submits one CSLS match whose scores pass sleeps 300 ms, and returns
  /// once a worker is inside that pass: with one worker, everything
  /// submitted in the next ~300 ms waits in the queue.
  static std::future<ServeResponse> HoldTheWorker(MatchServer* server) {
    Result<FaultPlan> plan =
        FaultPlan::Parse("engine.scores:nth=1,max=1,latency_us=300000");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    FaultInjector::Global().Arm(std::move(plan).value(), /*seed=*/1);
    std::future<ServeResponse> held =
        server->Submit(MatchRequest(AlgorithmPreset::kCsls));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->Stats().batches < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_EQ(server->Stats().batches, 1u);
    return held;
  }

  Matrix source_;
  Matrix target_;
};

TEST_F(ServeTest, CreateRejectsDegenerateConfig) {
  MatchServerConfig config;
  config.queue_capacity = 0;
  EXPECT_FALSE(MatchServer::Create(config).ok());
  config = MatchServerConfig();
  config.max_batch = 0;
  EXPECT_FALSE(MatchServer::Create(config).ok());
  config = MatchServerConfig();
  config.shed_watermark = config.queue_capacity + 1;
  EXPECT_EQ(MatchServer::Create(config).status().code(),
            StatusCode::kInvalidArgument);
  // A full queue refuses before the degrade branch, so a watermark at
  // capacity could never degrade.
  config = MatchServerConfig();
  config.degrade_watermark = config.queue_capacity;
  EXPECT_EQ(MatchServer::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

// EM_SERVE_WORKERS is outside input: anything but digits falls back to the
// hardware default. strtoul read " 3" as 3 and "-1" as 2^64 - 1 workers.
TEST_F(ServeTest, MalformedServeWorkersEnvFallsBackToHardware) {
  const char* previous = std::getenv("EM_SERVE_WORKERS");
  const std::string saved = previous != nullptr ? previous : "";
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  ::setenv("EM_SERVE_WORKERS", hardware == 3 ? " 2" : " 3", 1);
  Result<std::unique_ptr<MatchServer>> server =
      MatchServer::Create(MatchServerConfig());
  if (previous != nullptr) {
    ::setenv("EM_SERVE_WORKERS", saved.c_str(), 1);
  } else {
    ::unsetenv("EM_SERVE_WORKERS");
  }
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->serve_workers(), hardware);
}

TEST_F(ServeTest, LoadPairRejectsDuplicateName) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  Status again = server->LoadPair("default", Matrix(source_), Matrix(target_));
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST_F(ServeTest, UnknownPairRejectedNotFound) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  ServeRequest request = MatchRequest(AlgorithmPreset::kCsls);
  request.pair = "nope";
  ServeResponse response = server->Query(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server->Stats().rejected, 1u);
}

TEST_F(ServeTest, RlMatcherRejectedInvalidArgument) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  ServeResponse response = server->Query(MatchRequest(AlgorithmPreset::kRl));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, TopKZeroRejectedInvalidArgument) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  ServeRequest request = MatchRequest(AlgorithmPreset::kCsls);
  request.kind = ServeQueryKind::kTopK;
  request.topk = 0;
  ServeResponse response = server->Query(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, OverBudgetRequestRejectedAtAdmission) {
  MatchServerConfig config;
  config.workspace_budget_bytes = 16;  // far below any 24 x 30 scores pass
  std::unique_ptr<MatchServer> server = MakeServer(config);
  ServeResponse response =
      server->Query(MatchRequest(AlgorithmPreset::kCsls));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.batches, 0u);  // rejected before any kernel work
}

TEST_F(ServeTest, QueueFullRejectedAndDrainedAfterStart) {
  MatchServerConfig config;
  config.queue_capacity = 3;
  // Not started: submissions park in the queue deterministically.
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  std::vector<std::future<ServeResponse>> admitted;
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    admitted.push_back(server->Submit(MatchRequest(AlgorithmPreset::kCsls)));
  }
  ServeResponse overflow =
      server->Query(MatchRequest(AlgorithmPreset::kCsls));
  EXPECT_EQ(overflow.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(overflow.retry_after_micros, 0u);  // shed with a backoff hint

  ASSERT_TRUE(server->Start().ok());
  const Assignment reference = SoloMatch(AlgorithmPreset::kCsls);
  for (std::future<ServeResponse>& f : admitted) {
    ServeResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.assignment.target_of_source,
              reference.target_of_source);
  }
}

TEST_F(ServeTest, ShedWatermarkRejectsBeforeQueueIsFull) {
  MatchServerConfig config;
  config.queue_capacity = 8;
  config.shed_watermark = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  std::vector<std::future<ServeResponse>> admitted;
  for (size_t i = 0; i < config.shed_watermark; ++i) {
    admitted.push_back(server->Submit(MatchRequest(AlgorithmPreset::kCsls)));
  }
  // Depth == watermark: shed, even though capacity has room for 6 more.
  ServeResponse shed = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(shed.retry_after_micros, 0u);

  ASSERT_TRUE(server->Start().ok());
  for (std::future<ServeResponse>& f : admitted) {
    EXPECT_TRUE(f.get().status.ok());
  }
  server->Shutdown();
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);  // shed is a subset of rejected
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
}

// A running server's admission sees its backlog: requests waiting for the
// one busy worker count toward the shed watermark, so of five submitted
// while it is held, two queue and three shed with a backoff hint.
TEST_F(ServeTest, RunningServerShedsAtTheWatermarkWhileItsWorkerIsBusy) {
  MatchServerConfig config;
  config.serve_workers = 1;
  config.queue_capacity = 8;
  config.shed_watermark = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  std::future<ServeResponse> held = HoldTheWorker(server.get());

  std::vector<std::future<ServeResponse>> waiting;
  for (int i = 0; i < 5; ++i) {
    waiting.push_back(server->Submit(MatchRequest(AlgorithmPreset::kDInf)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server->Stats().queue_depth, 2u);

  EXPECT_TRUE(held.get().status.ok());
  size_t ok_count = 0;
  size_t shed_count = 0;
  for (std::future<ServeResponse>& f : waiting) {
    const ServeResponse response = f.get();
    if (response.status.ok()) {
      ++ok_count;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      EXPECT_GT(response.retry_after_micros, 0u);
      ++shed_count;
    }
  }
  EXPECT_EQ(ok_count, 2u);
  EXPECT_EQ(shed_count, 3u);
  server->Shutdown();
  EXPECT_EQ(server->Stats().max_queue_depth, 2u);
}

// The shed hint prices the backlog at the measured batch time: once a CSLS
// batch has taken 100 ms, a request shed behind two queued ones is told to
// come back no sooner than one such batch, not after one flush window.
TEST_F(ServeTest, RetryAfterHintFollowsMeasuredExecution) {
  MatchServerConfig config;
  config.serve_workers = 1;
  config.queue_capacity = 8;
  config.shed_watermark = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  Result<FaultPlan> plan =
      FaultPlan::Parse("engine.scores:nth=1,max=2,latency_us=100000");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjector::Global().Arm(std::move(plan).value(), /*seed=*/1);

  ASSERT_TRUE(server->Query(MatchRequest(AlgorithmPreset::kCsls)).status.ok());
  std::future<ServeResponse> held =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->Stats().batches < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server->Stats().batches, 2u);

  std::vector<std::future<ServeResponse>> queued;
  for (int i = 0; i < 2; ++i) {
    queued.push_back(server->Submit(MatchRequest(AlgorithmPreset::kDInf)));
  }
  const ServeResponse shed =
      server->Query(MatchRequest(AlgorithmPreset::kDInf));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(shed.retry_after_micros, 100000u);

  EXPECT_TRUE(held.get().status.ok());
  for (std::future<ServeResponse>& f : queued) {
    EXPECT_TRUE(f.get().status.ok());
  }
  server->Shutdown();
}

// Same backlog, degrade watermark 1: the first request queued behind the
// busy worker stays dense, the second is degraded onto the sparse path.
TEST_F(ServeTest, RunningServerDegradesAtTheWatermarkWhileItsWorkerIsBusy) {
  MatchServerConfig config;
  config.serve_workers = 1;
  config.degrade_watermark = 1;
  config.degrade_num_candidates = 8;
  config.degrade_nprobe = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  Result<CandidateIndex> index =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(server
                  ->AttachIndex("default", std::make_unique<CandidateIndex>(
                                               std::move(index).value()))
                  .ok());
  std::future<ServeResponse> held = HoldTheWorker(server.get());

  std::future<ServeResponse> dense =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::future<ServeResponse> degraded =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));

  EXPECT_TRUE(held.get().status.ok());
  const ServeResponse dense_response = dense.get();
  const ServeResponse degraded_response = degraded.get();
  ASSERT_TRUE(dense_response.status.ok()) << dense_response.status.ToString();
  ASSERT_TRUE(degraded_response.status.ok())
      << degraded_response.status.ToString();
  EXPECT_FALSE(dense_response.degraded);
  EXPECT_TRUE(degraded_response.degraded);
}

TEST_F(ServeTest, DegradeWatermarkRewritesOntoSparsePath) {
  MatchServerConfig config;
  config.queue_capacity = 16;
  config.degrade_watermark = 1;  // any queued depth >= 1 degrades the next
  config.degrade_num_candidates = 8;
  config.degrade_nprobe = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  Result<CandidateIndex> index =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(server
                  ->AttachIndex("default", std::make_unique<CandidateIndex>(
                                               std::move(index).value()))
                  .ok());

  // First submit sits at depth 0 (not degraded); the second sees depth 1.
  std::future<ServeResponse> dense =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));
  std::future<ServeResponse> degraded =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(server->Start().ok());

  ServeResponse dense_response = dense.get();
  ServeResponse degraded_response = degraded.get();
  ASSERT_TRUE(dense_response.status.ok()) << dense_response.status.ToString();
  ASSERT_TRUE(degraded_response.status.ok())
      << degraded_response.status.ToString();
  EXPECT_FALSE(dense_response.degraded);
  EXPECT_TRUE(degraded_response.degraded);
  // The degraded answer is a full assignment over the same source set, just
  // computed from sparse candidates.
  EXPECT_EQ(degraded_response.assignment.target_of_source.size(),
            dense_response.assignment.target_of_source.size());

  server->Shutdown();
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.admitted, 2u);  // degraded is a subset of admitted
}

TEST_F(ServeTest, AttachIndexValidatesPairAndShape) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  Result<CandidateIndex> index =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(index.ok());

  EXPECT_EQ(server->AttachIndex("default", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server
                ->AttachIndex("nope", std::make_unique<CandidateIndex>(
                                          std::move(index).value()))
                .code(),
            StatusCode::kNotFound);

  Result<CandidateIndex> wrong_shape =
      CandidateIndex::Build(source_, CandidateIndexOptions());
  ASSERT_TRUE(wrong_shape.ok());
  EXPECT_EQ(server
                ->AttachIndex("default", std::make_unique<CandidateIndex>(
                                             std::move(wrong_shape).value()))
                .code(),
            StatusCode::kInvalidArgument);

  Result<CandidateIndex> rebuilt =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(server
                  ->AttachIndex("default", std::make_unique<CandidateIndex>(
                                               std::move(rebuilt).value()))
                  .ok());
  Result<CandidateIndex> duplicate =
      CandidateIndex::Build(target_, CandidateIndexOptions());
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(server
                ->AttachIndex("default", std::make_unique<CandidateIndex>(
                                             std::move(duplicate).value()))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ServeTest, HealthJsonReportsWatermarksAndShedRate) {
  MatchServerConfig config;
  config.queue_capacity = 4;
  config.shed_watermark = 3;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  ASSERT_TRUE(server->Query(MatchRequest(AlgorithmPreset::kCsls)).status.ok());

  const std::string health = server->HealthJson();
  EXPECT_NE(health.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(health.find("\"queue_capacity\": 4"), std::string::npos);
  EXPECT_NE(health.find("\"shed_watermark\": 3"), std::string::npos);
  EXPECT_NE(health.find("\"submitted\": 1"), std::string::npos);
  EXPECT_NE(health.find("\"shed\": 0"), std::string::npos);
  EXPECT_NE(health.find("\"shed_rate\""), std::string::npos);
  // No plan armed in the default test binary.
  EXPECT_NE(health.find("\"fault_plan\": \"off\""), std::string::npos);
}

// FaultPlan::Parse takes any bytes before ':' as a point name, and the
// health reply carries the armed spec. A quote or backslash there must not
// break the reply: the router's swap pin and the supervisor's re-join read
// pair versions out of it. The point never fires, so arming it works in
// every build.
TEST_F(ServeTest, HealthJsonEscapesTheArmedFaultPlan) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  Result<FaultPlan> plan = FaultPlan::Parse("no\"such\\point:p=0.5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjector::Global().Arm(std::move(plan).value(), /*seed=*/7);

  const std::string health = server->HealthJson();
  Result<JsonValue> doc = JsonValue::Parse(health);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << ": " << health;
  const JsonValue* fault_plan = doc->Find("fault_plan");
  ASSERT_NE(fault_plan, nullptr) << health;
  EXPECT_EQ(fault_plan->AsString(), FaultInjector::Global().Fingerprint());
  EXPECT_EQ(HealthPairVersion(health, "default"), 1u);
}

// Satellite 4 — rejection storm: many threads slam a tiny, *stopped* queue
// so most submissions shed while some are admitted, all racing against each
// other. TSan checks the stats/queue locking; the assertions check that the
// counters never drop or double-count a request.
TEST_F(ServeTest, RejectionStormKeepsStatsConsistent) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 32;

  MatchServerConfig config;
  config.queue_capacity = 4;
  config.shed_watermark = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<ServeResponse>>> futures(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            server->Submit(MatchRequest(AlgorithmPreset::kCsls)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Everything admitted is still parked; start the workers and drain.
  ASSERT_TRUE(server->Start().ok());
  size_t ok_count = 0;
  size_t shed_count = 0;
  for (std::vector<std::future<ServeResponse>>& per_thread : futures) {
    for (std::future<ServeResponse>& f : per_thread) {
      ServeResponse response = f.get();
      if (response.status.ok()) {
        ++ok_count;
      } else {
        ASSERT_EQ(response.status.code(), StatusCode::kUnavailable);
        EXPECT_GT(response.retry_after_micros, 0u);
        ++shed_count;
      }
    }
  }
  server->Shutdown();

  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(ok_count + shed_count, kThreads * kPerThread);
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.shed, stats.rejected);  // every rejection here was a shed
  EXPECT_EQ(stats.shed, shed_count);
  EXPECT_EQ(stats.completed, ok_count);
  EXPECT_GT(shed_count, 0u);  // the storm actually overflowed the watermark
  EXPECT_GT(ok_count, 0u);    // and some work was still admitted
  EXPECT_EQ(stats.latency_samples, stats.completed + stats.failed);
}

TEST_F(ServeTest, ExpiredDeadlineAnsweredWithoutExecuting) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  ServeRequest request = MatchRequest(AlgorithmPreset::kCsls);
  request.timeout_micros = 1;
  std::future<ServeResponse> future = server->Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(server->Start().ok());
  ServeResponse response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  server->Shutdown();
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.batches, 0u);  // expired before any scores pass
}

TEST_F(ServeTest, CompatibleQueriesShareOneScoresPass) {
  MatchServerConfig config;
  config.max_batch = 8;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  std::vector<std::future<ServeResponse>> inflight;
  for (size_t i = 0; i < 8; ++i) {
    inflight.push_back(server->Submit(MatchRequest(AlgorithmPreset::kCsls)));
  }
  ASSERT_TRUE(server->Start().ok());

  const Assignment reference = SoloMatch(AlgorithmPreset::kCsls);
  for (std::future<ServeResponse>& f : inflight) {
    ServeResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 8u);
    EXPECT_EQ(response.assignment.target_of_source,
              reference.target_of_source);
  }
  server->Shutdown();
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.batches, 1u);  // one shared similarity+transform pass
  EXPECT_EQ(stats.batched_queries, 8u);
}

TEST_F(ServeTest, MixedSignaturesSplitIntoGroups) {
  MatchServerConfig config;
  config.max_batch = 8;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);

  std::vector<std::future<ServeResponse>> csls;
  std::vector<std::future<ServeResponse>> dinf;
  for (size_t i = 0; i < 4; ++i) {
    csls.push_back(server->Submit(MatchRequest(AlgorithmPreset::kCsls)));
    dinf.push_back(server->Submit(MatchRequest(AlgorithmPreset::kDInf)));
  }
  ASSERT_TRUE(server->Start().ok());

  const Assignment csls_reference = SoloMatch(AlgorithmPreset::kCsls);
  const Assignment dinf_reference = SoloMatch(AlgorithmPreset::kDInf);
  for (std::future<ServeResponse>& f : csls) {
    ServeResponse response = f.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 4u);
    EXPECT_EQ(response.assignment.target_of_source,
              csls_reference.target_of_source);
  }
  for (std::future<ServeResponse>& f : dinf) {
    ServeResponse response = f.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 4u);
    EXPECT_EQ(response.assignment.target_of_source,
              dinf_reference.target_of_source);
  }
  server->Shutdown();
  EXPECT_EQ(server->Stats().batches, 2u);  // one pass per signature
}

TEST_F(ServeTest, TopKMatchesDirectRowTopKIndices) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  ServeRequest request = MatchRequest(AlgorithmPreset::kCsls);
  request.kind = ServeQueryKind::kTopK;
  request.topk = 5;
  ServeResponse response = server->Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  Result<MatchEngine> engine = MatchEngine::Create(
      Matrix(source_), Matrix(target_), MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(engine.ok());
  Result<Matrix> scores =
      engine->TransformedScores(MakePreset(AlgorithmPreset::kCsls));
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(response.topk, RowTopKIndices(*scores, 5));
}

TEST_F(ServeTest, ShutdownFailsStillQueuedRequests) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  std::future<ServeResponse> parked =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));
  server->Shutdown();  // no worker ever started; the request cannot run
  EXPECT_EQ(parked.get().status.code(), StatusCode::kFailedPrecondition);
  // And new submissions after shutdown are turned away at admission.
  ServeResponse late = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, StatsInvariantsHoldAcrossOutcomes) {
  MatchServerConfig config;
  config.workspace_budget_bytes = 1ull << 20;  // admits the small pair
  std::unique_ptr<MatchServer> server = MakeServer(config);

  ASSERT_TRUE(server->Query(MatchRequest(AlgorithmPreset::kCsls)).status.ok());
  ServeRequest unknown = MatchRequest(AlgorithmPreset::kCsls);
  unknown.pair = "nope";
  EXPECT_FALSE(server->Query(std::move(unknown)).status.ok());
  server->Shutdown();

  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.timed_out);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.latency_samples, stats.completed + stats.failed);
}

// Satellite 3 — the concurrency contract: many client threads with mixed
// presets against one warm server, every answer bit-identical to the
// sequential one-shot engine. TSan (CI job `tsan`) checks the data-race
// side of the same run.
TEST_F(ServeTest, ConcurrentClientsBitIdenticalToSequential) {
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 6;

  const std::vector<AlgorithmPreset> presets = MixedPresets();
  std::vector<Assignment> references;
  references.reserve(presets.size());
  for (AlgorithmPreset preset : presets) {
    references.push_back(SoloMatch(preset));
  }

  MatchServerConfig config;
  config.max_batch = 8;
  std::unique_ptr<MatchServer> server = MakeServer(config);

  std::vector<std::thread> clients;
  std::vector<char> ok(kClients, 1);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = 0; q < kQueriesPerClient; ++q) {
        const size_t which = (c + q) % presets.size();
        ServeResponse response =
            server->Query(MatchRequest(presets[which]));
        if (!response.status.ok() ||
            response.assignment.target_of_source !=
                references[which].target_of_source) {
          ok[c] = 0;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c << " saw a divergent answer";
  }
  server->Shutdown();
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.completed, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
}

TEST_F(ServeTest, SocketRoundTripMatchesInProcessQuery) {
  const std::string socket_path =
      "/tmp/em_serve_test_" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server.get(), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();

  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRequest match;
  match.verb = WireRequest::Verb::kMatch;
  match.algorithm = AlgorithmPreset::kCsls;
  Result<WireResponse> wire = client->Call(match);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_TRUE(wire->status.ok()) << wire->status.ToString();
  const Assignment reference = SoloMatch(AlgorithmPreset::kCsls);
  ASSERT_EQ(wire->values.size(), reference.target_of_source.size());
  for (size_t i = 0; i < wire->values.size(); ++i) {
    EXPECT_EQ(wire->values[i], reference.target_of_source[i]);
  }

  WireRequest stats;
  stats.verb = WireRequest::Verb::kStats;
  Result<WireResponse> stats_wire = client->Call(stats);
  ASSERT_TRUE(stats_wire.ok());
  ASSERT_TRUE(stats_wire->status.ok());
  EXPECT_NE(stats_wire->text.find("\"completed\": 1"), std::string::npos);

  WireRequest health;
  health.verb = WireRequest::Verb::kHealth;
  Result<WireResponse> health_wire = client->Call(health);
  ASSERT_TRUE(health_wire.ok()) << health_wire.status().ToString();
  ASSERT_TRUE(health_wire->status.ok());
  EXPECT_NE(health_wire->text.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(health_wire->text.find("\"fault_plan\""), std::string::npos);

  WireRequest bad;
  bad.verb = WireRequest::Verb::kTopK;
  bad.algorithm = AlgorithmPreset::kCsls;
  bad.k = 0;  // rejected server-side; the error code must cross the wire
  Result<WireResponse> bad_wire = client->Call(bad);
  ASSERT_TRUE(bad_wire.ok());
  EXPECT_EQ(bad_wire->status.code(), StatusCode::kInvalidArgument);

  WireRequest shutdown;
  shutdown.verb = WireRequest::Verb::kShutdown;
  Result<WireResponse> shutdown_wire = client->Call(shutdown);
  ASSERT_TRUE(shutdown_wire.ok());
  EXPECT_TRUE(shutdown_wire->status.ok());

  (*front)->WaitForShutdown();
  (*front)->Stop();
  server->Shutdown();
}

// Retry policy: a shed (kUnavailable) answer is retried with backoff; if the
// server never recovers the client surfaces the last shed response instead
// of spinning forever.
TEST_F(ServeTest, CallWithRetryGivesUpAgainstASaturatedServer) {
  const std::string socket_path =
      "/tmp/em_retry_test_" + std::to_string(::getpid()) + ".sock";
  MatchServerConfig config;
  config.queue_capacity = 4;
  config.shed_watermark = 1;
  // Not started: one parked request keeps the depth at the watermark, so
  // every socket call sheds deterministically.
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  std::future<ServeResponse> parked =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));

  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server.get(), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 500;
  policy.budget_micros = 1000000;

  WireRequest match;
  match.verb = WireRequest::Verb::kMatch;
  match.algorithm = AlgorithmPreset::kCsls;
  Result<WireResponse> wire = client->CallWithRetry(match, policy);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->status.code(), StatusCode::kUnavailable);
  EXPECT_GT(wire->retry_after_micros, 0u);
  // All 3 attempts were shed and counted as submissions.
  EXPECT_EQ(server->Stats().shed, 3u);

  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(parked.get().status.ok());
  (*front)->Stop();
  server->Shutdown();
}

// Regression (self-healing fleet satellite): the server's retry-after hint
// must survive a transport failure on the following attempt. A shedding
// shard that then drops its connection (crash, restart) used to reset the
// client to its tiny local backoff — hammering the reviving server at
// microsecond cadence exactly when it asked for breathing room.
TEST_F(ServeTest, CallWithRetryKeepsServerHintAcrossTransportFailure) {
  // Sheds every request with a fat retry-after hint, and flags the first
  // call so the test can kill the listener while the client backs off.
  class SheddingHandler : public WireHandler {
   public:
    std::string Handle(const std::string&, bool*) override {
      first_answered.set_value_at_most_once();
      return EncodeErrorResponse(Status::Unavailable("shedding"),
                                 /*retry_after_micros=*/30000);
    }
    struct Once {
      std::promise<void> promise;
      std::atomic<bool> set{false};
      void set_value_at_most_once() {
        if (!set.exchange(true)) promise.set_value();
      }
    };
    Once first_answered;
  };

  const std::string socket_path =
      "/tmp/em_retry_hint_test_" + std::to_string(::getpid()) + ".sock";
  SheddingHandler handler;
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(static_cast<WireHandler*>(&handler), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 200;
  policy.budget_micros = 10'000'000;

  WireRequest match;
  match.verb = WireRequest::Verb::kMatch;
  match.algorithm = AlgorithmPreset::kCsls;

  const auto start = std::chrono::steady_clock::now();
  std::thread killer([&] {
    // After the first shed response is on the wire, tear the front down so
    // attempts 2 and 3 die at the transport (connect refused).
    handler.first_answered.promise.get_future().wait();
    // Let the response frame reach the client before cutting the cord.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (*front)->Stop();
  });
  Result<WireResponse> wire = client->CallWithRetry(match, policy);
  killer.join();
  const uint64_t elapsed_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  // Attempts 2 and 3 hit a dead socket — the final verdict is the transport
  // failure, but BOTH sleeps honored the 30 ms hint (local backoff alone
  // would finish in well under a millisecond).
  EXPECT_FALSE(wire.ok() && wire->status.ok());
  EXPECT_GE(elapsed_micros, 2 * 30000u - 5000u);
}

// Virtual memory of this process in kB (VmSize in /proc/self/status).
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

// Each accepted connection is served on its own thread, whose stack is a
// mapping of its own. A front end that kept finished connection threads
// until Stop() grew by one stack per connection it ever accepted — and a
// shard gets a short connection from every health probe.
TEST_F(ServeTest, ClosedConnectionsReleaseTheirThreadStacks) {
  class RefusingHandler : public WireHandler {
   public:
    std::string Handle(const std::string&, bool*) override {
      return EncodeErrorResponse(Status::NotFound("probe"),
                                 /*retry_after_micros=*/0);
    }
  };
  const std::string socket_path =
      "/tmp/em_conn_reap_test_" + std::to_string(::getpid()) + ".sock";
  RefusingHandler handler;
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(static_cast<WireHandler*>(&handler), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  const auto round_trip = [&] {
    Result<ServeClient> client = ServeClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    WireRequest request;
    request.verb = WireRequest::Verb::kHealth;
    Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status.code(), StatusCode::kNotFound);
  };
  for (int i = 0; i < 4; ++i) round_trip();  // warm every one-time mapping

  pthread_attr_t attr;
  size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const size_t before_kb = VmSizeKb();
  constexpr size_t kConnections = 128;
  for (size_t i = 0; i < kConnections; ++i) round_trip();
  const size_t after_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0u);
  // A leak holds all 128 stacks. Without one, growth is the few threads
  // between close and their reaping accept, plus any malloc arenas glibc
  // adds for them (64 MB of address space each).
  EXPECT_LT(after_kb, before_kb + kConnections / 4 * (stack_bytes / 1024))
      << "VmSize " << before_kb << " kB -> " << after_kb << " kB over "
      << kConnections << " connections (thread stack " << stack_bytes / 1024
      << " kB)";
  (*front)->Stop();
}

TEST_F(ServeTest, CallWithRetrySucceedsOnceTheServerDrains) {
  const std::string socket_path =
      "/tmp/em_retry_ok_test_" + std::to_string(::getpid()) + ".sock";
  MatchServerConfig config;
  config.queue_capacity = 4;
  config.shed_watermark = 1;
  std::unique_ptr<MatchServer> server = MakeServer(config, /*start=*/false);
  std::future<ServeResponse> parked =
      server->Submit(MatchRequest(AlgorithmPreset::kCsls));

  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server.get(), socket_path);
  ASSERT_TRUE(front.ok());
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok());

  // Recovery arrives while the client is backing off: only once it has
  // been shed, however late its first attempt comes.
  std::thread recovery([&server] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (server->Stats().shed == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server->Start().ok());
  });

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_micros = 2000;
  policy.max_backoff_micros = 20000;
  policy.budget_micros = 30000000;

  WireRequest match;
  match.verb = WireRequest::Verb::kMatch;
  match.algorithm = AlgorithmPreset::kCsls;
  Result<WireResponse> wire = client->CallWithRetry(match, policy);
  recovery.join();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_TRUE(wire->status.ok()) << wire->status.ToString();
  const Assignment reference = SoloMatch(AlgorithmPreset::kCsls);
  ASSERT_EQ(wire->values.size(), reference.target_of_source.size());
  EXPECT_TRUE(parked.get().status.ok());
  EXPECT_GT(server->Stats().shed, 0u);  // it really was shed at least once

  (*front)->Stop();
  server->Shutdown();
}

// Fleet satellite — routed sub-queries. A row-ranged request must return
// exactly the slice of the full answer: transforms are globally normalized,
// so the shard runs the whole pipeline and slices rows. This is the
// property the router's bit-identical merge is built on.
TEST_F(ServeTest, RoutedRangeSlicesRowsBitIdentically) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());

  const Assignment full = SoloMatch(AlgorithmPreset::kCsls);
  ServeRequest ranged = MatchRequest(AlgorithmPreset::kCsls);
  ranged.row_begin = 4;
  ranged.row_end = 9;
  ServeResponse response = server->Query(std::move(ranged));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.assignment.target_of_source.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(response.assignment.target_of_source[i],
              full.target_of_source[4 + i]);
  }

  // Ranged topk with want_scores: indices AND bit-exact scores sliced from
  // the full per-row lists (the router merges partial lists by score).
  constexpr size_t kK = 3;
  ServeRequest full_topk = MatchRequest(AlgorithmPreset::kCsls);
  full_topk.kind = ServeQueryKind::kTopK;
  full_topk.topk = kK;
  full_topk.want_scores = true;
  ServeResponse full_response = server->Query(std::move(full_topk));
  ASSERT_TRUE(full_response.status.ok()) << full_response.status.ToString();
  ASSERT_EQ(full_response.topk.size(), source_.rows() * kK);
  ASSERT_EQ(full_response.topk_scores.size(), full_response.topk.size());

  ServeRequest ranged_topk = MatchRequest(AlgorithmPreset::kCsls);
  ranged_topk.kind = ServeQueryKind::kTopK;
  ranged_topk.topk = kK;
  ranged_topk.want_scores = true;
  ranged_topk.row_begin = 4;
  ranged_topk.row_end = 9;
  ServeResponse sliced = server->Query(std::move(ranged_topk));
  ASSERT_TRUE(sliced.status.ok()) << sliced.status.ToString();
  ASSERT_EQ(sliced.topk.size(), 5 * kK);
  ASSERT_EQ(sliced.topk_scores.size(), sliced.topk.size());
  for (size_t i = 0; i < sliced.topk.size(); ++i) {
    EXPECT_EQ(sliced.topk[i], full_response.topk[4 * kK + i]);
    // Bit-exact, not approximately equal: the merge compares raw floats.
    EXPECT_EQ(std::memcmp(&sliced.topk_scores[i],
                          &full_response.topk_scores[4 * kK + i],
                          sizeof(float)),
              0);
  }

  // Degenerate ranges are refused at admission, not served empty.
  ServeRequest empty = MatchRequest(AlgorithmPreset::kCsls);
  empty.row_begin = 9;
  empty.row_end = 4;
  EXPECT_EQ(server->Query(std::move(empty)).status.code(),
            StatusCode::kOutOfRange);
  ServeRequest beyond = MatchRequest(AlgorithmPreset::kCsls);
  beyond.row_begin = 0;
  beyond.row_end = source_.rows() + 1;
  EXPECT_EQ(server->Query(std::move(beyond)).status.code(),
            StatusCode::kOutOfRange);
}

// Admission declares what the query will lease: a row-local range (CSLS,
// greedy or top-k) only its own rows. A budget that fits a quarter of the
// pair but not all of it serves the quarter range and refuses the full
// query, and a range of a preset that scores the full pair.
TEST_F(ServeTest, AdmissionDeclaresTheRowLocalRangeFootprint) {
  const size_t quarter = source_.rows() / 4;
  MatchServerConfig config;
  config.workspace_budget_bytes = quarter * target_.rows() * sizeof(float);
  std::unique_ptr<MatchServer> server = MakeServer(config);

  const Assignment full = SoloMatch(AlgorithmPreset::kCsls);
  ServeRequest ranged = MatchRequest(AlgorithmPreset::kCsls);
  ranged.row_begin = quarter;
  ranged.row_end = 2 * quarter;
  ServeResponse answered = server->Query(ranged);
  ASSERT_TRUE(answered.status.ok()) << answered.status.ToString();
  EXPECT_EQ(answered.assignment.target_of_source,
            std::vector<int32_t>(full.target_of_source.begin() + quarter,
                                 full.target_of_source.begin() + 2 * quarter));

  ServeRequest ranged_topk = ranged;
  ranged_topk.kind = ServeQueryKind::kTopK;
  ranged_topk.topk = 3;
  EXPECT_TRUE(server->Query(ranged_topk).status.ok());

  EXPECT_EQ(server->Query(MatchRequest(AlgorithmPreset::kCsls)).status.code(),
            StatusCode::kResourceExhausted);
  ServeRequest hungarian = MatchRequest(AlgorithmPreset::kHungarian);
  hungarian.row_begin = ranged.row_begin;
  hungarian.row_end = ranged.row_end;
  EXPECT_EQ(server->Query(hungarian).status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(server->Stats().rejected, 2u);
}

// The result cache keys by row range: an entry holds exactly the bytes a
// fresh run returns for its range, and no range is served from another
// range's entry. Each answer equals a cache-off server's.
TEST_F(ServeTest, ResultCacheKeysByRowRange) {
  MatchServerConfig cached_config;
  cached_config.result_cache_bytes = 1 << 20;
  std::unique_ptr<MatchServer> cached = MakeServer(cached_config);
  std::unique_ptr<MatchServer> fresh = MakeServer(MatchServerConfig());

  ServeRequest dinf = MatchRequest(AlgorithmPreset::kDInf);
  ServeRequest csls = MatchRequest(AlgorithmPreset::kCsls);
  ServeRequest csls_topk = MatchRequest(AlgorithmPreset::kCsls);
  csls_topk.kind = ServeQueryKind::kTopK;
  csls_topk.topk = 3;
  csls_topk.want_scores = true;
  // [4, 9), the full pair, [4, 9) again (the only hit), then [9, 20).
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {4, 9}, {0, 0}, {4, 9}, {9, 20}};
  const std::vector<bool> hits = {false, false, true, false};
  for (const ServeRequest& shape : {dinf, csls, csls_topk}) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << static_cast<int>(shape.kind)
                   << " transform=" << static_cast<int>(shape.options.transform)
                   << " query " << i);
      ServeRequest request = shape;
      request.row_begin = ranges[i].first;
      request.row_end = ranges[i].second;
      const ServeResponse got = cached->Query(request);
      const ServeResponse want = fresh->Query(request);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      EXPECT_EQ(got.cached, hits[i]);
      EXPECT_EQ(got.assignment.target_of_source,
                want.assignment.target_of_source);
      EXPECT_EQ(got.topk, want.topk);
      ASSERT_EQ(got.topk_scores.size(), want.topk_scores.size());
      for (size_t j = 0; j < got.topk_scores.size(); ++j) {
        EXPECT_EQ(std::memcmp(&got.topk_scores[j], &want.topk_scores[j],
                              sizeof(float)),
                  0);
      }
      const size_t rows = ranges[i].second > 0
                              ? ranges[i].second - ranges[i].first
                              : source_.rows();
      EXPECT_EQ(shape.kind == ServeQueryKind::kMatch
                    ? got.assignment.target_of_source.size()
                    : got.topk.size() / 3,
                rows);
    }
  }
}

// A ranged query after a swap reads the new snapshot's column statistics,
// never ones built for the displaced version.
TEST_F(ServeTest, RangedQueryAfterSwapMatchesTheNewPair) {
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  const Matrix new_source = RandomEmbeddings(source_.rows(), /*seed=*/41);
  const Matrix new_target = RandomEmbeddings(target_.rows(), /*seed=*/42);
  for (AlgorithmPreset preset :
       {AlgorithmPreset::kCsls, AlgorithmPreset::kRinfWr}) {
    ServeRequest ranged = MatchRequest(preset);
    ranged.row_begin = 3;
    ranged.row_end = 17;
    ASSERT_TRUE(server->Query(ranged).status.ok());
  }
  Result<uint64_t> swapped = server->SwapPair(
      "default", Matrix(new_source), Matrix(new_target));
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  for (AlgorithmPreset preset :
       {AlgorithmPreset::kCsls, AlgorithmPreset::kRinfWr}) {
    Result<MatchEngine> solo = MatchEngine::Create(
        Matrix(new_source), Matrix(new_target), MakePreset(preset));
    ASSERT_TRUE(solo.ok());
    Result<Assignment> want = solo->Match();
    ASSERT_TRUE(want.ok());
    ServeRequest ranged = MatchRequest(preset);
    ranged.row_begin = 3;
    ranged.row_end = 17;
    const ServeResponse got = server->Query(ranged);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.snapshot_version, *swapped);
    EXPECT_EQ(got.assignment.target_of_source,
              std::vector<int32_t>(want->target_of_source.begin() + 3,
                                   want->target_of_source.begin() + 17))
        << PresetName(preset);
  }
}

// A range admitted against one snapshot can outlive it: a swap to fewer
// source rows before the batch runs answers kOutOfRange (the engine checks
// the range against the snapshot it scores) instead of reading past the
// answer.
TEST_F(ServeTest, RangePastASwappedPairIsOutOfRange) {
  std::unique_ptr<MatchServer> server =
      MakeServer(MatchServerConfig(), /*start=*/false);
  ServeRequest ranged = MatchRequest(AlgorithmPreset::kCsls);
  ranged.row_begin = 20;
  ranged.row_end = 24;
  std::future<ServeResponse> parked = server->Submit(ranged);
  ranged.options = MakePreset(AlgorithmPreset::kHungarian);
  std::future<ServeResponse> full_pair = server->Submit(ranged);
  ASSERT_TRUE(server
                  ->SwapPair("default", RandomEmbeddings(12, /*seed=*/3),
                             RandomEmbeddings(30, /*seed=*/4))
                  .ok());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_EQ(parked.get().status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(full_pair.get().status.code(), StatusCode::kOutOfRange);
}

// Fleet satellite — observability: the health JSON carries the result-cache
// counters and the per-pair snapshot-version map the router keys its
// mixed-version refusal on.
TEST_F(ServeTest, HealthJsonCarriesCacheCountersAndPairVersions) {
  MatchServerConfig config;
  config.result_cache_bytes = 1 << 20;
  std::unique_ptr<MatchServer> server = MakeServer(config);

  // Identical back-to-back queries: the first misses, the second hits.
  ASSERT_TRUE(server->Query(MatchRequest(AlgorithmPreset::kCsls)).status.ok());
  ServeResponse second = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cached);

  const std::string health = server->HealthJson();
  EXPECT_NE(health.find("\"cache_hits\": 1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cache_misses\": 1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cache_evictions\": 0"), std::string::npos);
  EXPECT_NE(health.find("\"result_cache_bytes\""), std::string::npos);
  EXPECT_NE(health.find("\"pairs\": {\"default\": 1}"), std::string::npos)
      << health;

  // The same fields surface in the stats JSON.
  const std::string stats = server->Stats().ToJson();
  EXPECT_NE(stats.find("\"cache_hits\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_misses\": 1"), std::string::npos) << stats;
}

// Fleet satellite — the route verb over the socket: the response echoes the
// row range, tags the snapshot version, and (for topk) carries scores.
TEST_F(ServeTest, RoutedWireQueryEchoesRangeVersionAndScores) {
  const std::string socket_path =
      "/tmp/em_serve_route_" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<MatchServer> server = MakeServer(MatchServerConfig());
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server.get(), socket_path);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRequest request;
  request.verb = WireRequest::Verb::kMatch;
  request.algorithm = AlgorithmPreset::kCsls;
  request.pair = "default";
  request.route = true;
  request.row_begin = 2;
  request.row_end = 7;
  Result<WireResponse> wire = client->Call(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_TRUE(wire->status.ok()) << wire->status.ToString();
  EXPECT_TRUE(wire->has_range);
  EXPECT_EQ(wire->row_begin, 2u);
  EXPECT_EQ(wire->row_end, 7u);
  EXPECT_EQ(wire->version, 1u);  // first published snapshot of the pair
  const Assignment reference = SoloMatch(AlgorithmPreset::kCsls);
  ASSERT_EQ(wire->values.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(wire->values[i], reference.target_of_source[2 + i]);
  }

  // Routed topk always carries scores (the merge needs them).
  request.verb = WireRequest::Verb::kTopK;
  request.k = 4;
  Result<WireResponse> topk = client->Call(request);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ASSERT_TRUE(topk->status.ok()) << topk->status.ToString();
  EXPECT_EQ(topk->values.size(), 5u * 4u);
  EXPECT_EQ(topk->scores.size(), topk->values.size());

  (*front)->Stop();
  server->Shutdown();
}

}  // namespace
}  // namespace entmatcher

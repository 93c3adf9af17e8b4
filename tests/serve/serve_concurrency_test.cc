// Multi-worker serving contracts (runs under TSan and ASan in CI):
//   - the SAME mixed-preset storm produces byte-identical responses and
//     identical admission/outcome ledgers at serve_workers 1, 2, 4, and 8,
//     every answer equals the solo MatchEngine answer, and a 4-worker
//     server with the result cache on serves the same bytes, from the cache
//     on a repeat;
//   - a hot swap under load never yields a batch that mixes snapshot
//     versions (asserted from (batch_id, snapshot_version) on responses)
//     and the displaced snapshot is reclaimed once in-flight passes drain,
//     also when degraded queries hold raw index pointers into it;
//   - the cross-request result cache serves identical bytes, counts
//     hits/misses, and is invalidated by a swap;
//   - the first ranged queries on a fresh snapshot, racing to build its
//     column statistics, all return the solo answer's rows;
//   - concurrent Stats()/HealthJson() readers race no writer (regression
//     for the pre-refactor mutex-bypassing stats read path);
//   - Start runs exactly one thread per serve worker, and Shutdown joins
//     them all.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/candidate_index.h"
#include "matching/engine.h"
#include "serve/server.h"
#include "support/process_threads.h"

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

std::vector<AlgorithmPreset> StormPresets() {
  return {AlgorithmPreset::kCsls, AlgorithmPreset::kDInf,
          AlgorithmPreset::kSinkhorn, AlgorithmPreset::kStableMatch};
}

/// Everything about a storm that must not depend on the worker count.
struct StormOutcome {
  std::vector<std::vector<int32_t>> assignments;
  std::vector<std::vector<uint32_t>> topks;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t timed_out = 0;

  bool operator==(const StormOutcome& other) const {
    return assignments == other.assignments && topks == other.topks &&
           submitted == other.submitted && admitted == other.admitted &&
           rejected == other.rejected && completed == other.completed &&
           failed == other.failed && timed_out == other.timed_out;
  }
};

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  ServeConcurrencyTest()
      : source_(RandomEmbeddings(24, /*seed=*/5)),
        target_(RandomEmbeddings(30, /*seed=*/8)) {}

  std::unique_ptr<MatchServer> MakeServer(MatchServerConfig config,
                                          uint64_t source_seed = 5,
                                          uint64_t target_seed = 8) {
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    Status loaded = (*server)->LoadPair("default",
                                        RandomEmbeddings(24, source_seed),
                                        RandomEmbeddings(30, target_seed));
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    Status started = (*server)->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return std::move(server).value();
  }

  Assignment SoloMatch(AlgorithmPreset preset, uint64_t source_seed = 5,
                       uint64_t target_seed = 8) {
    Result<MatchEngine> engine = MatchEngine::Create(
        RandomEmbeddings(24, source_seed), RandomEmbeddings(30, target_seed),
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

  /// Submits the canonical mixed-preset storm to a started `server` and
  /// collects its answers; `cached_matches`, when given, counts the match
  /// responses the result cache served.
  static StormOutcome SubmitStorm(MatchServer* server,
                                  size_t* cached_matches = nullptr) {
    constexpr int kRepeats = 5;
    constexpr size_t kTopK = 3;
    std::vector<std::future<ServeResponse>> match_futures;
    std::vector<std::future<ServeResponse>> topk_futures;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (AlgorithmPreset preset : StormPresets()) {
        match_futures.push_back(server->Submit(MatchRequest(preset)));
      }
      ServeRequest topk = MatchRequest(AlgorithmPreset::kCsls);
      topk.kind = ServeQueryKind::kTopK;
      topk.topk = kTopK;
      topk_futures.push_back(server->Submit(std::move(topk)));
    }

    StormOutcome outcome;
    for (std::future<ServeResponse>& future : match_futures) {
      ServeResponse response = future.get();
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.snapshot_version, 1u);
      outcome.assignments.push_back(response.assignment.target_of_source);
      if (cached_matches != nullptr && response.cached) ++*cached_matches;
    }
    for (std::future<ServeResponse>& future : topk_futures) {
      ServeResponse response = future.get();
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      outcome.topks.push_back(response.topk);
    }
    return outcome;
  }

  /// Runs the canonical mixed-preset storm at `workers` and collects the
  /// worker-count-independent outcome.
  StormOutcome RunStorm(size_t workers) {
    MatchServerConfig config;
    config.queue_capacity = 512;
    config.serve_workers = workers;
    std::unique_ptr<MatchServer> server = MakeServer(config);
    EXPECT_EQ(server->serve_workers(), workers);
    StormOutcome outcome = SubmitStorm(server.get());
    server->Shutdown();
    const ServerStatsSnapshot stats = server->Stats();
    outcome.submitted = stats.submitted;
    outcome.admitted = stats.admitted;
    outcome.rejected = stats.rejected;
    outcome.completed = stats.completed;
    outcome.failed = stats.failed;
    outcome.timed_out = stats.timed_out;
    // Ledger invariants hold at the quiescent post-Shutdown point.
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.admitted,
              stats.completed + stats.failed + stats.timed_out);
    return outcome;
  }

  Matrix source_;
  Matrix target_;
};

TEST_F(ServeConcurrencyTest, StormIsBitIdenticalAtEveryWorkerCount) {
  const StormOutcome one = RunStorm(1);
  for (size_t workers : {2u, 4u, 8u}) {
    EXPECT_TRUE(one == RunStorm(workers))
        << "workers=" << workers << " diverged from workers=1";
  }

  // Cache hits change speed, never bytes: the storm twice through a
  // 4-worker server with the result cache on answers as the uncached runs
  // did, and every match of the second pass is a cache hit.
  MatchServerConfig config;
  config.queue_capacity = 512;
  config.serve_workers = 4;
  config.result_cache_bytes = 1 << 20;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  for (int pass = 0; pass < 2; ++pass) {
    size_t cached_matches = 0;
    const StormOutcome cached = SubmitStorm(server.get(), &cached_matches);
    EXPECT_EQ(cached.assignments, one.assignments) << "cached pass " << pass;
    EXPECT_EQ(cached.topks, one.topks) << "cached pass " << pass;
    if (pass == 1) {
      EXPECT_EQ(cached_matches, cached.assignments.size())
          << "second pass recomputed a match the cache holds";
    }
  }
  server->Shutdown();

  // And the served bytes are the solo-engine bytes, not merely stable.
  const std::vector<AlgorithmPreset> presets = StormPresets();
  for (size_t i = 0; i < one.assignments.size(); ++i) {
    const Assignment solo = SoloMatch(presets[i % presets.size()]);
    EXPECT_EQ(one.assignments[i], solo.target_of_source)
        << "served answer diverged from solo engine for request " << i;
  }
}

TEST_F(ServeConcurrencyTest, SwapUnderLoadNeverMixesBatchVersions) {
  MatchServerConfig config;
  config.queue_capacity = 1024;
  config.serve_workers = 4;
  std::unique_ptr<MatchServer> server = MakeServer(config);

  std::weak_ptr<const PairSnapshot> displaced =
      server->CurrentSnapshot("default");
  ASSERT_FALSE(displaced.expired());

  // Two submitters keep a mixed storm in flight while the main thread
  // swaps the pair three times.
  struct Tagged {
    uint64_t batch_id;
    uint64_t version;
    Status status;
  };
  std::vector<std::vector<Tagged>> collected(2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      const std::vector<AlgorithmPreset> presets = StormPresets();
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ServeResponse response =
            server->Query(MatchRequest(presets[i++ % presets.size()]));
        collected[t].push_back(
            {response.batch_id, response.snapshot_version, response.status});
      }
    });
  }
  constexpr uint64_t kSwaps = 3;
  for (uint64_t swap = 0; swap < kSwaps; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Result<uint64_t> version = server->SwapPair(
        "default", RandomEmbeddings(24, 100 + swap),
        RandomEmbeddings(30, 200 + swap));
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    EXPECT_EQ(*version, swap + 2);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& submitter : submitters) submitter.join();

  // No batch may span a swap: every response that rode batch B must report
  // the same snapshot version.
  std::map<uint64_t, std::set<uint64_t>> versions_by_batch;
  size_t executed = 0;
  for (const std::vector<Tagged>& thread_responses : collected) {
    for (const Tagged& tagged : thread_responses) {
      ASSERT_TRUE(tagged.status.ok()) << tagged.status.ToString();
      ASSERT_GE(tagged.version, 1u);
      ASSERT_LE(tagged.version, kSwaps + 1);
      if (tagged.batch_id != 0) {
        versions_by_batch[tagged.batch_id].insert(tagged.version);
        ++executed;
      }
    }
  }
  ASSERT_GT(executed, 0u);
  for (const auto& [batch_id, versions] : versions_by_batch) {
    EXPECT_EQ(versions.size(), 1u)
        << "batch " << batch_id << " mixed snapshot versions";
  }
  EXPECT_EQ(server->Stats().snapshot_swaps, kSwaps);

  // Post-swap answers come from the new embeddings.
  ServeResponse fresh = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.snapshot_version, kSwaps + 1);
  EXPECT_EQ(fresh.assignment.target_of_source,
            SoloMatch(AlgorithmPreset::kCsls, 100 + kSwaps - 1,
                      200 + kSwaps - 1)
                .target_of_source);

  // Once every worker has moved its engine to a newer version (each query
  // lands on some worker), nothing references the displaced v1 snapshot any
  // more and it must be destroyed — no leak.
  for (int attempt = 0; attempt < 100 && !displaced.expired(); ++attempt) {
    (void)server->Query(MatchRequest(AlgorithmPreset::kDInf));
  }
  EXPECT_TRUE(displaced.expired()) << "displaced snapshot never reclaimed";
  server->Shutdown();
}

// A degraded query's options carry a raw candidate_index pointer into the
// snapshot its group pinned. Swaps that each publish a fresh index displace
// that snapshot while groups still run on it: the group's own reference must
// keep the index alive. Every answer is ok, no batch mixes versions, and once
// the queue drains every displaced snapshot (and its index) is freed.
TEST_F(ServeConcurrencyTest, DegradedQueriesSurviveSwapsOfTheirIndex) {
  MatchServerConfig config;
  config.queue_capacity = 1024;
  config.serve_workers = 4;
  config.degrade_watermark = 1;  // any queued depth >= 1 degrades the next
  config.degrade_num_candidates = 8;
  config.degrade_nprobe = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  const auto index_over = [](const Matrix& target) {
    Result<CandidateIndex> index =
        CandidateIndex::Build(target, CandidateIndexOptions());
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::make_unique<CandidateIndex>(std::move(index).value());
  };
  ASSERT_TRUE(server
                  ->AttachIndex("default",
                                index_over(server->CurrentSnapshot("default")
                                               ->target()))
                  .ok());
  std::vector<std::weak_ptr<const PairSnapshot>> displaced = {
      server->CurrentSnapshot("default")};

  // Three submitters keep bursts of dense CSLS and DInf matches queued, so
  // every burst after its first request is degraded onto the current index.
  struct Tagged {
    uint64_t batch_id;
    uint64_t version;
    bool degraded;
    Status status;
  };
  std::vector<std::vector<Tagged>> collected(3);
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < collected.size(); ++t) {
    submitters.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::future<ServeResponse>> burst;
        for (int i = 0; i < 4; ++i) {
          burst.push_back(server->Submit(MatchRequest(
              i % 2 == 0 ? AlgorithmPreset::kCsls : AlgorithmPreset::kDInf)));
        }
        for (std::future<ServeResponse>& future : burst) {
          ServeResponse response = future.get();
          collected[t].push_back({response.batch_id, response.snapshot_version,
                                  response.degraded, response.status});
        }
      }
    });
  }
  constexpr uint64_t kSwaps = 4;
  for (uint64_t swap = 0; swap < kSwaps; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Matrix target = RandomEmbeddings(30, 200 + swap);
    std::unique_ptr<CandidateIndex> index = index_over(target);
    Result<uint64_t> version =
        server->SwapPair("default", RandomEmbeddings(24, 100 + swap),
                         std::move(target), std::move(index));
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    displaced.push_back(server->CurrentSnapshot("default"));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& submitter : submitters) submitter.join();

  std::map<uint64_t, std::set<uint64_t>> versions_by_batch;
  size_t degraded = 0;
  for (const std::vector<Tagged>& thread_responses : collected) {
    for (const Tagged& tagged : thread_responses) {
      ASSERT_TRUE(tagged.status.ok()) << tagged.status.ToString();
      if (tagged.batch_id != 0) {
        versions_by_batch[tagged.batch_id].insert(tagged.version);
      }
      degraded += tagged.degraded ? 1 : 0;
    }
  }
  EXPECT_GT(degraded, 0u) << "no query took the raw-pointer degrade path";
  for (const auto& [batch_id, versions] : versions_by_batch) {
    EXPECT_EQ(versions.size(), 1u)
        << "batch " << batch_id << " mixed snapshot versions";
  }

  // Shutdown drains the queue and drops the workers' engines; then only the
  // registry still holds a snapshot, the current one.
  server->Shutdown();
  displaced.pop_back();
  for (size_t v = 0; v < displaced.size(); ++v) {
    EXPECT_TRUE(displaced[v].expired()) << "displaced snapshot " << v
                                        << " outlived every reference";
  }
}

TEST_F(ServeConcurrencyTest, ResultCacheServesIdenticalBytesAndInvalidates) {
  MatchServerConfig config;
  config.serve_workers = 2;
  config.result_cache_bytes = 1 << 20;
  std::unique_ptr<MatchServer> server = MakeServer(config);

  ServeResponse first = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cached);
  ServeResponse second = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.batch_size, 0u) << "a cache hit ran a scores pass";
  EXPECT_EQ(second.assignment.target_of_source,
            first.assignment.target_of_source);
  EXPECT_EQ(second.snapshot_version, first.snapshot_version);

  ServerStatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
  EXPECT_GT(stats.result_cache_bytes, 0u);

  // A different signature is a different key.
  ServeResponse other = server->Query(MatchRequest(AlgorithmPreset::kDInf));
  ASSERT_TRUE(other.status.ok());
  EXPECT_FALSE(other.cached);

  // A swap invalidates: same request misses and recomputes on v2.
  ASSERT_TRUE(server
                  ->SwapPair("default", RandomEmbeddings(24, 50),
                             RandomEmbeddings(30, 60))
                  .ok());
  ServeResponse after = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_EQ(after.assignment.target_of_source,
            SoloMatch(AlgorithmPreset::kCsls, 50, 60).target_of_source);
  server->Shutdown();
}

TEST_F(ServeConcurrencyTest, CacheIsOffByDefault) {
  MatchServerConfig config;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  (void)server->Query(MatchRequest(AlgorithmPreset::kCsls));
  ServeResponse second = server->Query(MatchRequest(AlgorithmPreset::kCsls));
  EXPECT_FALSE(second.cached);
  EXPECT_EQ(server->Stats().cache_hits, 0u);
  EXPECT_EQ(server->Stats().cache_misses, 0u);
}

// The first ranged CSLS and RInf-wr queries on a fresh snapshot build its
// column statistics. Eight callers send them at once, each request its own
// batch on its own worker, so the builds race; every answer must still be
// the solo answer's rows. Then again after a swap, on the new snapshot.
TEST_F(ServeConcurrencyTest, ConcurrentFirstRangedQueriesAgree) {
  MatchServerConfig config;
  config.serve_workers = 8;
  config.max_batch = 1;
  config.queue_capacity = 64;
  std::unique_ptr<MatchServer> server = MakeServer(config);
  constexpr int kCallers = 8;
  constexpr size_t kBegin = 5;
  constexpr size_t kEnd = 19;
  const std::vector<AlgorithmPreset> presets = {AlgorithmPreset::kCsls,
                                                AlgorithmPreset::kRinfWr};
  for (const auto& [source_seed, target_seed] :
       std::vector<std::pair<uint64_t, uint64_t>>{{5, 8}, {70, 80}}) {
    if (source_seed != 5) {
      ASSERT_TRUE(server
                      ->SwapPair("default", RandomEmbeddings(24, source_seed),
                                 RandomEmbeddings(30, target_seed))
                      .ok());
    }
    std::atomic<int> ready{0};
    std::vector<std::vector<ServeResponse>> answers(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kCallers) std::this_thread::yield();
        std::vector<std::future<ServeResponse>> futures;
        for (AlgorithmPreset preset : presets) {
          ServeRequest request = MatchRequest(preset);
          request.row_begin = kBegin;
          request.row_end = kEnd;
          futures.push_back(server->Submit(std::move(request)));
        }
        for (std::future<ServeResponse>& future : futures) {
          answers[c].push_back(future.get());
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (size_t p = 0; p < presets.size(); ++p) {
      const Assignment solo = SoloMatch(presets[p], source_seed, target_seed);
      const std::vector<int32_t> want(solo.target_of_source.begin() + kBegin,
                                      solo.target_of_source.begin() + kEnd);
      for (int c = 0; c < kCallers; ++c) {
        ASSERT_TRUE(answers[c][p].status.ok())
            << answers[c][p].status.ToString();
        EXPECT_EQ(answers[c][p].assignment.target_of_source, want)
            << PresetName(presets[p]) << " caller " << c;
      }
    }
  }
  server->Shutdown();
}

// The old ServerStats kept a plain struct behind a mutex the read path
// bypassed; this read-storm + write-storm is the TSan regression for it.
TEST_F(ServeConcurrencyTest, StatsReadersRaceNoWriters) {
  MatchServerConfig config;
  config.serve_workers = 2;
  std::unique_ptr<MatchServer> server = MakeServer(config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const ServerStatsSnapshot snapshot = server->Stats();
        // Directional ledger sanity under concurrency (exactness is only
        // guaranteed at quiescent points): a mid-flight reader must never
        // see a dependent counter ahead of its prerequisite.
        EXPECT_GE(snapshot.submitted, snapshot.admitted + snapshot.rejected);
        EXPECT_GE(snapshot.admitted, snapshot.completed + snapshot.failed +
                                         snapshot.timed_out);
        (void)server->HealthJson();
      }
    });
  }
  const std::vector<AlgorithmPreset> presets = StormPresets();
  for (int i = 0; i < 40; ++i) {
    ServeResponse response =
        server->Query(MatchRequest(presets[i % presets.size()]));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  server->Shutdown();
  const ServerStatsSnapshot final_stats = server->Stats();
  EXPECT_EQ(final_stats.submitted,
            final_stats.admitted + final_stats.rejected);
  EXPECT_EQ(final_stats.admitted, final_stats.completed + final_stats.failed +
                                      final_stats.timed_out);
}

// The workers are the server's only threads: each takes its batches
// straight from the admission queue, with no thread in between.
TEST_F(ServeConcurrencyTest, StartRunsOneThreadPerServeWorker) {
  MatchServerConfig config;
  config.serve_workers = 3;
  Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // A sanitizer runtime starts a helper thread along with the process's
  // first thread; let that happen before the baseline is taken.
  std::thread([] {}).join();
  const size_t baseline = ProcessThreadCount();
  ASSERT_GT(baseline, 0u);
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(ProcessThreadCount(), baseline + 3);
  (*server)->Shutdown();
  // A joined thread can stay listed until the kernel has reaped it.
  size_t after = ProcessThreadCount();
  for (int i = 0; i < 200 && after != baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    after = ProcessThreadCount();
  }
  EXPECT_EQ(after, baseline);
}

}  // namespace
}  // namespace entmatcher

// Router scatter-gather contract, tested against in-process shards (real
// MatchServers behind real unix sockets):
//   - the headline merge property: router-merged match/topk answers are
//     bit-identical to a single-process server over the union, for every
//     sparse-capable preset, at 2 and 4 shards, at serve workers 1 and 4;
//   - the no-mixed-version guarantee (a half-swapped fleet refuses reads);
//   - protocol handshake refusal (a shard speaking another version is
//     marked incompatible, kFailedPrecondition);
//   - failover to a replica when an owner is down;
//   - hedged requests winning against a slow primary, with no thread
//     started per query;
//   - all-or-nothing swap fan-out with partial-failure reporting + repair,
//     and a swap to EMBF files;
//   - re-join: Converge moves a restarted shard onto the files and version
//     of the last converged swap, exactly (also after a partial fan-out),
//     and never interleaves with a swap fan-out.

#include "fleet/router.h"

#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/plan.h"
#include "la/matrix_io.h"
#include "la/mmap_store.h"
#include "matching/engine.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "support/process_threads.h"

namespace entmatcher {
namespace {

constexpr size_t kRows = 24;
constexpr size_t kTargets = 30;
constexpr size_t kDim = 16;

Matrix RandomEmbeddings(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, kDim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

std::vector<AlgorithmPreset> SparseCapablePresets() {
  return {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls,
          AlgorithmPreset::kRinf, AlgorithmPreset::kRinfWr,
          AlgorithmPreset::kRinfPb};
}

/// A WireHandler decorator that holds the frames starting with `prefix`
/// (routed sub-queries by default) until Release(), or until `cap` has
/// passed since its construction, so that a test can tell whether an answer
/// came while the primary still held its frame.
class GateHandler : public WireHandler {
 public:
  GateHandler(WireHandler* inner, std::chrono::milliseconds cap,
              std::string prefix = "route ")
      : inner_(inner),
        open_at_(std::chrono::steady_clock::now() + cap),
        prefix_(std::move(prefix)) {}

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  /// Gated frames that have gone through the gate so far.
  size_t passed() {
    std::lock_guard<std::mutex> lock(mu_);
    return passed_;
  }

  /// Waits until a gated frame has reached the gate, i.e. until a shard
  /// connection thread is handling one; false after `timeout`.
  bool WaitForArrival(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return arrived_ > 0; });
  }

  std::string Handle(const std::string& payload, bool* shutdown) override {
    if (payload.rfind(prefix_, 0) == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      ++arrived_;
      cv_.notify_all();
      cv_.wait_until(lock, open_at_, [&] { return released_; });
      ++passed_;
    }
    return inner_->Handle(payload, shutdown);
  }

 private:
  WireHandler* inner_;
  const std::chrono::steady_clock::time_point open_at_;
  const std::string prefix_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  size_t arrived_ = 0;
  size_t passed_ = 0;
};

/// A WireHandler decorator that fails swap requests while armed — the
/// diverging shard of a partial swap fan-out.
class FailSwapHandler : public WireHandler {
 public:
  explicit FailSwapHandler(WireHandler* inner) : inner_(inner) {}

  void Arm(bool on) { armed_.store(on); }

  std::string Handle(const std::string& payload, bool* shutdown) override {
    if (armed_.load() && payload.rfind("swap ", 0) == 0) {
      return EncodeErrorResponse(Status::Internal("injected swap failure"));
    }
    return inner_->Handle(payload, shutdown);
  }

 private:
  WireHandler* inner_;
  std::atomic<bool> armed_{false};
};

/// A fake peer whose hello reports an alien protocol version.
class AlienHelloHandler : public WireHandler {
 public:
  std::string Handle(const std::string& payload, bool*) override {
    if (payload == "hello") {
      return EncodeTextResponse(
          "{\"protocol\": 99, \"build\": \"x\", \"role\": \"shard\"}");
    }
    return EncodeErrorResponse(Status::Internal("alien peer"));
  }
};

/// Each channel's `state` in the router's `shards` reply, in plan order.
std::vector<std::string> ChannelStates(const Router& router) {
  std::vector<std::string> states;
  Result<JsonValue> shards = JsonValue::Parse(router.ShardsJson());
  EXPECT_TRUE(shards.ok()) << shards.status().ToString();
  if (!shards.ok()) return states;
  const JsonValue::Array* channels =
      shards->GetArray("channels").value_or(nullptr);
  EXPECT_NE(channels, nullptr) << shards->Dump();
  if (channels == nullptr) return states;
  for (const JsonValue& channel : *channels) {
    states.push_back(channel.GetString("state").value_or(""));
  }
  return states;
}

/// An in-process fleet: one full-pair MatchServer + SocketServer per shard,
/// fronted by a Router built from an EvenSplit plan.
class Fleet {
 public:
  Fleet(const Matrix& source, const Matrix& target, int num_shards,
        size_t serve_workers, int replicas, RouterConfig router_config = {},
        const std::string& pair_name = "p")
      : serve_workers_(serve_workers),
        pair_name_(pair_name),
        dir_("/tmp/em_fleet_" + std::to_string(::getpid()) + "_" +
             std::to_string(instance_counter_++)) {
    Result<ShardPlan> plan = ShardPlan::EvenSplit(
        pair_name, "unused.src", "unused.tgt", "", source.rows(), num_shards,
        dir_, replicas);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).value();
    // mkdir for the sockets (EvenSplit only names them).
    ::mkdir(dir_.c_str(), 0755);
    for (int i = 0; i < num_shards; ++i) {
      servers_.push_back(LoadedServer(source, target));
      handlers_.push_back(
          std::make_unique<MatchServerHandler>(servers_.back().get()));
    }
    StartSockets();
    Result<std::unique_ptr<Router>> router =
        Router::Create(plan_, router_config);
    EXPECT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(router).value();
  }

  ~Fleet() {
    router_.reset();  // drain stragglers before sockets die
    for (std::unique_ptr<SocketServer>& front : fronts_) {
      if (front) front->Stop();
    }
    for (std::unique_ptr<MatchServer>& server : servers_) {
      server->Shutdown();
    }
    std::filesystem::remove_all(dir_);
    // wrappers_ is destroyed after this body, so only once every socket
    // thread that could call a wrapper has been joined.
  }

  /// Replaces shard `i`'s wire handler (decorators) — call before queries.
  /// The fleet owns the wrapper, so it outlives every socket thread.
  void WrapHandler(size_t i, std::unique_ptr<WireHandler> handler) {
    fronts_[i]->Stop();
    Result<std::unique_ptr<SocketServer>> front =
        SocketServer::Start(handler.get(), plan_.shards[i].socket_path);
    EXPECT_TRUE(front.ok()) << front.status().ToString();
    fronts_[i] = std::move(front).value();
    wrappers_.push_back(std::move(handler));
  }

  /// Stops shard `i`'s socket front end (simulates a dead shard).
  void StopShard(size_t i) {
    fronts_[i]->Stop();
    fronts_[i].reset();
    ::unlink(plan_.shards[i].socket_path.c_str());
  }

  /// Brings a StopShard'ed front end back on its original handler (the
  /// "shard recovered" half of breaker tests).
  void RestartShard(size_t i) {
    Result<std::unique_ptr<SocketServer>> front =
        SocketServer::Start(handlers_[i].get(), plan_.shards[i].socket_path);
    EXPECT_TRUE(front.ok()) << front.status().ToString();
    fronts_[i] = std::move(front).value();
  }

  /// Replaces shard `i` by a fresh server over (source, target), as a
  /// restarted shard process comes back: at version 1, on those files.
  void ReplaceShard(size_t i, const Matrix& source, const Matrix& target) {
    fronts_[i]->Stop();
    servers_[i]->Shutdown();
    servers_[i] = LoadedServer(source, target);
    handlers_[i] = std::make_unique<MatchServerHandler>(servers_[i].get());
    RestartShard(i);
  }

  /// Shard `i`'s version of the pair, as its own `health` reports it.
  uint64_t ShardVersion(size_t i) const {
    WireRequest health;
    health.verb = WireRequest::Verb::kHealth;
    Result<std::string> reply = CallOnce(plan_.shards[i].socket_path, health);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? HealthPairVersion(*reply, pair_name_) : 0;
  }

  Router& router() { return *router_; }
  const ShardPlan& plan() const { return plan_; }
  MatchServer& server(size_t i) { return *servers_[i]; }
  WireHandler* handler(size_t i) { return handlers_[i].get(); }

 private:
  /// A started server over (source, target).
  std::unique_ptr<MatchServer> LoadedServer(const Matrix& source,
                                            const Matrix& target) const {
    MatchServerConfig config;
    config.serve_workers = serve_workers_;
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_TRUE(
        (*server)->LoadPair(pair_name_, Matrix(source), Matrix(target)).ok());
    EXPECT_TRUE((*server)->Start().ok());
    return std::move(server).value();
  }

  void StartSockets() {
    for (size_t i = 0; i < servers_.size(); ++i) {
      Result<std::unique_ptr<SocketServer>> front =
          SocketServer::Start(handlers_[i].get(),
                              plan_.shards[i].socket_path);
      EXPECT_TRUE(front.ok()) << front.status().ToString();
      fronts_.push_back(std::move(front).value());
    }
  }

  static std::atomic<int> instance_counter_;
  const size_t serve_workers_;
  const std::string pair_name_;
  const std::string dir_;  // the shards' sockets
  ShardPlan plan_;
  std::vector<std::unique_ptr<MatchServer>> servers_;
  std::vector<std::unique_ptr<MatchServerHandler>> handlers_;
  std::vector<std::unique_ptr<WireHandler>> wrappers_;
  std::vector<std::unique_ptr<SocketServer>> fronts_;
  std::unique_ptr<Router> router_;
};

std::atomic<int> Fleet::instance_counter_{0};

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : source_(RandomEmbeddings(kRows, /*seed=*/5)),
        target_(RandomEmbeddings(kTargets, /*seed=*/8)),
        dir_("/tmp/em_router_" + std::to_string(::getpid())) {
    ::mkdir(dir_.c_str(), 0755);
  }

  // Every file a test writes lives in dir_, so a failed assertion leaves
  // nothing behind either.
  ~RouterTest() override { std::filesystem::remove_all(dir_); }

  /// The same query answered by a dedicated single-process server.
  std::vector<int32_t> SoloAnswer(const WireRequest& request,
                                  size_t serve_workers) {
    MatchServerConfig config;
    config.serve_workers = serve_workers;
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    EXPECT_TRUE(server.ok());
    EXPECT_TRUE(
        (*server)->LoadPair("p", Matrix(source_), Matrix(target_)).ok());
    EXPECT_TRUE((*server)->Start().ok());
    const std::string socket = dir_ + "/solo.sock";
    Result<std::unique_ptr<SocketServer>> front =
        SocketServer::Start(server->get(), socket);
    EXPECT_TRUE(front.ok());
    Result<ServeClient> client = ServeClient::Connect(socket);
    EXPECT_TRUE(client.ok());
    Result<WireResponse> response = client->Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    (*front)->Stop();
    (*server)->Shutdown();
    return response->values;
  }

  static WireRequest MatchRequest(AlgorithmPreset preset) {
    WireRequest request;
    request.verb = WireRequest::Verb::kMatch;
    request.algorithm = preset;
    request.pair = "p";
    return request;
  }

  /// Writes (source, target) to EMAT files named after `name` and returns
  /// the swap of pair "p" onto them.
  WireRequest SwapTo(const Matrix& source, const Matrix& target,
                     const std::string& name) const {
    const std::string prefix = dir_ + "/" + name;
    EXPECT_TRUE(WriteMatrixBinary(source, prefix + ".src.emat").ok());
    EXPECT_TRUE(WriteMatrixBinary(target, prefix + ".tgt.emat").ok());
    WireRequest swap;
    swap.verb = WireRequest::Verb::kSwap;
    swap.pair = "p";
    swap.source_path = prefix + ".src.emat";
    swap.target_path = prefix + ".tgt.emat";
    return swap;
  }

  /// A solo engine's CSLS assignment over (source, target).
  static std::vector<int32_t> SoloCsls(const Matrix& source,
                                       const Matrix& target) {
    Result<MatchEngine> engine = MatchEngine::Create(
        Matrix(source), Matrix(target), MakePreset(AlgorithmPreset::kCsls));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return {};
    Result<Assignment> solo = engine->Match();
    EXPECT_TRUE(solo.ok()) << solo.status().ToString();
    return solo.ok() ? solo->target_of_source : std::vector<int32_t>{};
  }

  static WireRequest TopKRequest(AlgorithmPreset preset, size_t k) {
    WireRequest request;
    request.verb = WireRequest::Verb::kTopK;
    request.algorithm = preset;
    request.k = k;
    request.pair = "p";
    return request;
  }

  Matrix source_;
  Matrix target_;
  const std::string dir_;
};

// The tentpole acceptance property: for every sparse-capable preset, at
// every tested shard count and worker count, the router's merged answer is
// bit-identical to the single-process answer over the union.
TEST_F(RouterTest, MergedAnswersBitIdenticalToSingleProcess) {
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    for (const int shards : {2, 4}) {
      Fleet fleet(source_, target_, shards, workers, /*replicas=*/0);
      for (const AlgorithmPreset preset : SparseCapablePresets()) {
        SCOPED_TRACE(std::string("preset=") + PresetName(preset) +
                     " shards=" + std::to_string(shards) +
                     " workers=" + std::to_string(workers));
        const WireRequest match = MatchRequest(preset);
        Result<WireResponse> routed = fleet.router().Query(match);
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        EXPECT_EQ(routed->values, SoloAnswer(match, workers));

        const WireRequest topk = TopKRequest(preset, 5);
        Result<WireResponse> routed_topk = fleet.router().Query(topk);
        ASSERT_TRUE(routed_topk.ok()) << routed_topk.status().ToString();
        EXPECT_EQ(routed_topk->values, SoloAnswer(topk, workers));
      }
      const RouterStatsSnapshot stats = fleet.router().Stats();
      EXPECT_EQ(stats.version_mismatches, 0u);
      EXPECT_EQ(stats.failed, 0u);
      EXPECT_EQ(stats.queries, stats.ok + stats.failed);
    }
  }
}

TEST_F(RouterTest, RefusesRouteVerbAndUnknownPair) {
  Fleet fleet(source_, target_, 2, 1, 0);
  WireRequest routed = MatchRequest(AlgorithmPreset::kDInf);
  routed.route = true;
  routed.row_begin = 0;
  routed.row_end = 4;
  EXPECT_EQ(fleet.router().Query(routed).status().code(),
            StatusCode::kInvalidArgument);
  WireRequest unknown = MatchRequest(AlgorithmPreset::kDInf);
  unknown.pair = "nope";
  EXPECT_EQ(fleet.router().Query(unknown).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RouterTest, MixedVersionsRefusedAfterDirectShardSwap) {
  Fleet fleet(source_, target_, 2, 1, 0);
  // Swap ONE shard behind the router's back: the fleet now has v1 and v2.
  const WireRequest swap = SwapTo(source_, target_, "mixed");
  Result<ServeClient> direct =
      ServeClient::Connect(fleet.plan().shards[0].socket_path);
  ASSERT_TRUE(direct.ok());
  Result<WireResponse> swapped = direct->Call(swap);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ASSERT_TRUE(swapped->status.ok()) << swapped->status.ToString();

  Result<WireResponse> read =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(read.status().message().find("mixed snapshot versions"),
            std::string::npos);
  EXPECT_GE(fleet.router().Stats().version_mismatches, 1u);

  // Repair: converge the lagging shard through the router's fan-out, after
  // which reads flow again.
  Result<std::string> repair = fleet.router().Swap(swap);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf)).ok());
}

TEST_F(RouterTest, IncompatibleHelloRefusedPermanently) {
  Fleet fleet(source_, target_, 2, 1, 0);
  fleet.WrapHandler(0, std::make_unique<AlienHelloHandler>());
  Result<WireResponse> read =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(read.status().message().find("protocol"), std::string::npos);
  // Still refused without re-dialing (the channel is poisoned, not Down).
  EXPECT_EQ(fleet.router()
                .Query(MatchRequest(AlgorithmPreset::kDInf))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // A health probe that the peer answers does not clear the refusal.
  fleet.router().FleetHealthJson();
  EXPECT_EQ(ChannelStates(fleet.router()),
            (std::vector<std::string>{"incompatible", "up"}));
  EXPECT_EQ(fleet.router()
                .Query(MatchRequest(AlgorithmPreset::kDInf))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RouterTest, FailsOverToReplicaWhenOwnerIsDown) {
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/1);
  const WireRequest request = MatchRequest(AlgorithmPreset::kCsls);
  const std::vector<int32_t> expected = SoloAnswer(request, 1);
  fleet.StopShard(0);
  Result<WireResponse> read = fleet.router().Query(request);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->values, expected);
  EXPECT_GE(fleet.router().Stats().failovers, 1u);
  // With every owner of a range gone, the query fails cleanly instead of
  // hanging.
  fleet.StopShard(1);
  EXPECT_FALSE(fleet.router().Query(request).ok());
}

TEST_F(RouterTest, HedgeRacesSlowPrimary) {
  RouterConfig config;
  config.hedge_micros = 20'000;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/1, config);
  // Shard 0 holds routed sub-queries until released. The cap only turns a
  // broken hedge into a failure instead of a hang.
  auto owned_gate = std::make_unique<GateHandler>(
      fleet.handler(0), std::chrono::milliseconds(10'000));
  GateHandler& gate = *owned_gate;
  fleet.WrapHandler(0, std::move(owned_gate));
  const WireRequest request = MatchRequest(AlgorithmPreset::kDInf);
  const std::vector<int32_t> expected = SoloAnswer(request, 1);
  Result<WireResponse> read = fleet.router().Query(request);
  // The hedge to the replica answered while the primary still held its
  // frame.
  EXPECT_EQ(gate.passed(), 0u);
  gate.Release();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->values, expected);
  EXPECT_GE(fleet.router().Stats().hedges, 1u);
}

// A routed query starts no thread: attempts run on the channels' threads
// and the gather on the caller's. So a storm of concurrent hedged queries
// against a primary that never answers adds no thread to the process
// beyond the callers themselves and the sampler.
TEST_F(RouterTest, ConcurrentHedgedQueriesStartNoThreads) {
  RouterConfig config;
  config.hedge_micros = 5'000;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/1, config);
  auto owned_gate = std::make_unique<GateHandler>(
      fleet.handler(0), std::chrono::milliseconds(10'000));
  GateHandler& gate = *owned_gate;
  fleet.WrapHandler(0, std::move(owned_gate));
  const WireRequest request = MatchRequest(AlgorithmPreset::kDInf);
  const std::vector<int32_t> expected = SoloAnswer(request, 1);
  // Dial both channels and warm the shards before counting: shard 1 takes
  // range 0 by hedge, and range 1 as its primary. The hedge can answer
  // before channel 0 has dialed shard 0 at all, so also wait for its frame
  // to reach the gate: shard 0's connection thread then predates the count.
  ASSERT_TRUE(fleet.router().Query(request).ok());
  ASSERT_TRUE(gate.WaitForArrival(std::chrono::milliseconds(10'000)));

  constexpr size_t kCallers = 6;
  constexpr size_t kPerCaller = 5;
  const size_t before = ProcessThreadCount();
  const std::string before_names = ProcessThreadNames();
  ASSERT_GT(before, 0u);
  std::atomic<bool> storming{true};
  // Written by the sampler, read after its join.
  size_t peak = before;
  std::string peak_names = before_names;
  std::thread sampler([&] {
    ::pthread_setname_np(::pthread_self(), "sampler");
    while (storming.load()) {
      const size_t now = ProcessThreadCount();
      if (now > peak) {
        peak = now;
        peak_names = ProcessThreadNames();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::atomic<size_t> correct{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      ::pthread_setname_np(::pthread_self(), "caller");
      for (size_t q = 0; q < kPerCaller; ++q) {
        Result<WireResponse> read = fleet.router().Query(request);
        if (read.ok() && read->values == expected) correct.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  storming.store(false);
  sampler.join();
  gate.Release();

  EXPECT_EQ(correct.load(), kCallers * kPerCaller);
  EXPECT_LE(peak, before + kCallers + 1)
      << "threads before the storm (" << before << "): " << before_names
      << "\nat the peak (" << peak << "): " << peak_names;
  const RouterStatsSnapshot stats = fleet.router().Stats();
  EXPECT_GE(stats.hedges, kCallers * kPerCaller);
  EXPECT_EQ(stats.queries, stats.ok + stats.failed);
}

TEST_F(RouterTest, SwapFanOutIsAllOrNothingWithRepair) {
  Fleet fleet(source_, target_, 2, 1, 0);
  const WireRequest swap = SwapTo(source_, target_, "fan");

  auto owned_flaky = std::make_unique<FailSwapHandler>(fleet.handler(1));
  FailSwapHandler& flaky = *owned_flaky;
  fleet.WrapHandler(1, std::move(owned_flaky));
  flaky.Arm(true);
  Result<std::string> diverged = fleet.router().Swap(swap);
  ASSERT_FALSE(diverged.ok());
  EXPECT_NE(diverged.status().message().find("did not converge"),
            std::string::npos);
  EXPECT_NE(diverged.status().message().find("injected swap failure"),
            std::string::npos);
  // The guarantee while diverged: reads spanning both shards refuse.
  EXPECT_EQ(fleet.router()
                .Query(MatchRequest(AlgorithmPreset::kDInf))
                .status()
                .code(),
            StatusCode::kUnavailable);

  // Repair swap: converged shards republish, the laggard catches up.
  flaky.Arm(false);
  Result<std::string> repaired = fleet.router().Swap(swap);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf)).ok());
  const RouterStatsSnapshot stats = fleet.router().Stats();
  EXPECT_EQ(stats.swap_fanouts, 2u);
  EXPECT_EQ(stats.swap_failures, 1u);
}

// The swap verb reads either embedding format: a fleet swapped to EMBF files
// of a second pair version answers as a solo engine over that pair.
TEST_F(RouterTest, SwapFanOutReadsEmbfFiles) {
  Fleet fleet(source_, target_, 2, 1, 0);
  const Matrix source = RandomEmbeddings(kRows, /*seed=*/15);
  const Matrix target = RandomEmbeddings(kTargets, /*seed=*/18);
  const std::string prefix = dir_ + "/fan_embf";
  ASSERT_TRUE(MmapStore::Write(source, prefix + ".src.embf").ok());
  ASSERT_TRUE(MmapStore::Write(target, prefix + ".tgt.embf").ok());
  WireRequest swap;
  swap.verb = WireRequest::Verb::kSwap;
  swap.pair = "p";
  swap.source_path = prefix + ".src.embf";
  swap.target_path = prefix + ".tgt.embf";
  Result<std::string> swapped = fleet.router().Swap(swap);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();

  for (const AlgorithmPreset preset : SparseCapablePresets()) {
    SCOPED_TRACE(PresetName(preset));
    Result<MatchEngine> engine = MatchEngine::Create(
        Matrix(source), Matrix(target), MakePreset(preset));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Result<Assignment> solo = engine->Match();
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    Result<WireResponse> routed = fleet.router().Query(MatchRequest(preset));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed->values, solo->target_of_source);
  }
}

TEST_F(RouterTest, RouterHandlerSpeaksTheWireProtocol) {
  Fleet fleet(source_, target_, 2, 1, 0);
  RouterHandler handler(&fleet.router());
  bool shutdown = false;
  // hello: role router, current protocol.
  Result<WireResponse> hello =
      ParseResponse(handler.Handle("hello", &shutdown));
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(hello->status.ok()) << hello->status.ToString();
  EXPECT_NE(hello->text.find("\"role\":\"router\""), std::string::npos);
  EXPECT_TRUE(CheckHello(hello->text, "router").ok());
  // shards: plan + channel states.
  Result<WireResponse> shards =
      ParseResponse(handler.Handle("shards", &shutdown));
  ASSERT_TRUE(shards.ok());
  ASSERT_TRUE(shards->status.ok());
  EXPECT_NE(shards->text.find("\"plan\""), std::string::npos);
  // match through the handler merges like Router::Query.
  Result<WireResponse> match =
      ParseResponse(handler.Handle("match DInf pair=p", &shutdown));
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(match->status.ok()) << match->status.ToString();
  EXPECT_EQ(match->values.size(), kRows);
  // route is refused client-side.
  Result<WireResponse> route =
      ParseResponse(handler.Handle("route p 0:4 match DInf", &shutdown));
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(shutdown);
  handler.Handle("shutdown", &shutdown);
  EXPECT_TRUE(shutdown);
}

// Circuit breaker: consecutive transport failures open it, and while open
// it fails fast. The ledger is exact because max_attempts=1 makes every
// failed query exactly one attempt on the dead channel; the cooldown is
// longer than any run, so the fail-fast query can never be the probe.
TEST_F(RouterTest, CircuitBreakerOpensAndFailsFast) {
  RouterConfig config;
  config.retry.max_attempts = 1;
  config.breaker_failures = 2;
  config.breaker_cooldown_micros = 60'000'000;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0, config);
  const WireRequest request = MatchRequest(AlgorithmPreset::kCsls);
  ASSERT_TRUE(fleet.router().Query(request).ok());  // prime both channels

  fleet.StopShard(0);
  // Failures 1 and 2: real connect attempts; the second trips the breaker.
  EXPECT_FALSE(fleet.router().Query(request).ok());
  EXPECT_FALSE(fleet.router().Query(request).ok());
  const RouterStatsSnapshot stats = fleet.router().Stats();
  EXPECT_EQ(stats.breaker_opens, 1u) << stats.ToJson().Dump();
  // Open: fails fast without dialing, and says so.
  Result<WireResponse> fast = fleet.router().Query(request);
  ASSERT_FALSE(fast.ok());
  EXPECT_NE(fast.status().message().find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(fleet.router().Stats().breaker_opens, 1u);
}

// After the cooldown the next attempt is the half-open probe; its success
// re-closes the breaker and the query goes through.
TEST_F(RouterTest, CircuitBreakerReclosesAfterCooldown) {
  RouterConfig config;
  config.retry.max_attempts = 1;
  config.breaker_failures = 2;
  config.breaker_cooldown_micros = 1'000;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0, config);
  const WireRequest request = MatchRequest(AlgorithmPreset::kCsls);
  ASSERT_TRUE(fleet.router().Query(request).ok());  // prime both channels

  fleet.StopShard(0);
  EXPECT_FALSE(fleet.router().Query(request).ok());
  EXPECT_FALSE(fleet.router().Query(request).ok());
  fleet.RestartShard(0);
  std::this_thread::sleep_for(
      std::chrono::microseconds(config.breaker_cooldown_micros));
  Result<WireResponse> recovered = fleet.router().Query(request);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RouterStatsSnapshot stats = fleet.router().Stats();
  EXPECT_EQ(stats.breaker_opens, 1u) << stats.ToJson().Dump();
  EXPECT_EQ(stats.breaker_half_opens, 1u);
  EXPECT_EQ(stats.breaker_closes, 1u);
}

// Supervisor admission control: a quarantined channel is invisible to
// routing (not even tried) until Readmit.
TEST_F(RouterTest, QuarantineExcludesChannelUntilReadmit) {
  RouterConfig config;
  config.retry.max_attempts = 1;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0, config);
  const WireRequest request = MatchRequest(AlgorithmPreset::kCsls);
  ASSERT_TRUE(fleet.router().Query(request).ok());

  ASSERT_TRUE(fleet.router().Quarantine(0).ok());
  Result<WireResponse> refused = fleet.router().Query(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("no admitted owner"),
            std::string::npos);
  Result<JsonValue> health = JsonValue::Parse(fleet.router().FleetHealthJson());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  const JsonValue::Array* shards = health->GetArray("shards").value_or(nullptr);
  ASSERT_TRUE(shards != nullptr && !shards->empty()) << health->Dump();
  const JsonValue* admitted = (*shards)[0].Find("admitted");
  ASSERT_NE(admitted, nullptr) << health->Dump();
  EXPECT_FALSE(admitted->AsBool());

  ASSERT_TRUE(fleet.router().Readmit(0).ok());
  EXPECT_TRUE(fleet.router().Query(request).ok());
  EXPECT_EQ(fleet.router().Quarantine(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(fleet.router().Readmit(99).code(), StatusCode::kNotFound);
}

// Re-join: a shard restarted from the first pair (v1) after the fleet
// swapped to a second one is moved by Converge onto the second pair's files
// at the swapped version, so the readmitted fleet answers as a solo engine
// over the second pair.
TEST_F(RouterTest, ConvergeDrivesANewcomerOntoTheSwappedFiles) {
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0);
  const Matrix source2 = RandomEmbeddings(kRows, /*seed=*/25);
  const Matrix target2 = RandomEmbeddings(kTargets, /*seed=*/28);
  const WireRequest second = SwapTo(source2, target2, "second");
  Result<std::string> swapped = fleet.router().Swap(second);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();

  fleet.ReplaceShard(0, source_, target_);
  EXPECT_EQ(fleet.ShardVersion(0), 1u);
  ASSERT_TRUE(fleet.router().Quarantine(0).ok());
  const Status converged = fleet.router().Converge(0);
  ASSERT_TRUE(converged.ok()) << converged.ToString();
  ASSERT_TRUE(fleet.router().Readmit(0).ok());

  Result<WireResponse> routed =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->version, 2u);
  EXPECT_EQ(routed->values, SoloCsls(source2, target2));
  EXPECT_EQ(fleet.router().Converge(99).code(), StatusCode::kNotFound);
}

// Re-join after a partial fan-out: the fleet swaps to pair B (v2), a swap
// to pair C then lands on shard 0 only (v3), and shard 1 restarts and
// re-joins. Converge pins the record, B at v2, exactly, so no version
// serves two pairs: a routed answer is a solo answer over one pair or a
// mixed-version refusal, and a repair swap puts both shards on C.
TEST_F(RouterTest, RejoinAfterAPartialSwapLandsOnTheRecord) {
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0);
  const Matrix source_b = RandomEmbeddings(kRows, /*seed=*/25);
  const Matrix target_b = RandomEmbeddings(kTargets, /*seed=*/28);
  const Matrix source_c = RandomEmbeddings(kRows, /*seed=*/35);
  const Matrix target_c = RandomEmbeddings(kTargets, /*seed=*/38);
  const WireRequest to_b = SwapTo(source_b, target_b, "b");
  const WireRequest to_c = SwapTo(source_c, target_c, "c");
  Result<std::string> swapped = fleet.router().Swap(to_b);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();

  auto owned_flaky = std::make_unique<FailSwapHandler>(fleet.handler(1));
  owned_flaky->Arm(true);
  fleet.WrapHandler(1, std::move(owned_flaky));
  ASSERT_FALSE(fleet.router().Swap(to_c).ok());
  EXPECT_EQ(fleet.ShardVersion(0), 3u);
  EXPECT_EQ(fleet.ShardVersion(1), 2u);

  fleet.ReplaceShard(1, source_, target_);
  ASSERT_TRUE(fleet.router().Quarantine(1).ok());
  const Status converged = fleet.router().Converge(1);
  ASSERT_TRUE(converged.ok()) << converged.ToString();
  ASSERT_TRUE(fleet.router().Readmit(1).ok());
  EXPECT_EQ(fleet.ShardVersion(1), 2u);

  const std::vector<int32_t> solo_b = SoloCsls(source_b, target_b);
  const std::vector<int32_t> solo_c = SoloCsls(source_c, target_c);
  for (int query = 0; query < 3; ++query) {
    Result<WireResponse> routed =
        fleet.router().Query(MatchRequest(AlgorithmPreset::kCsls));
    if (routed.ok()) {
      EXPECT_TRUE(routed->values == solo_b || routed->values == solo_c)
          << "v" << routed->version << " answers from two pairs";
    } else {
      EXPECT_NE(routed.status().message().find("mixed snapshot versions"),
                std::string::npos)
          << routed.status().ToString();
    }
  }

  Result<std::string> repaired = fleet.router().Swap(to_c);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(fleet.ShardVersion(0), fleet.ShardVersion(1));
  Result<WireResponse> routed =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->values, solo_c);
}

// A swap leaves a cached connection to every owner. Once shard 1's socket
// server restarts, writing the next swap's version probe on that connection
// fails with EPIPE before the shard reads a frame, so the router redials
// and resends once, and the second swap lands on both shards.
TEST_F(RouterTest, SwapRedialsAfterAShardSocketServerRestarts) {
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0);
  const WireRequest second = SwapTo(RandomEmbeddings(kRows, 25),
                                    RandomEmbeddings(kTargets, 28), "second");
  Result<std::string> swapped = fleet.router().Swap(second);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  fleet.StopShard(1);
  fleet.RestartShard(1);

  const Matrix source3 = RandomEmbeddings(kRows, /*seed=*/35);
  const Matrix target3 = RandomEmbeddings(kTargets, /*seed=*/38);
  const WireRequest third = SwapTo(source3, target3, "third");
  Result<std::string> reswapped = fleet.router().Swap(third);
  ASSERT_TRUE(reswapped.ok()) << reswapped.status().ToString();
  EXPECT_EQ(fleet.ShardVersion(0), 3u);
  EXPECT_EQ(fleet.ShardVersion(1), 3u);
  Result<WireResponse> routed =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->version, 3u);
  EXPECT_EQ(routed->values, SoloCsls(source3, target3));
}

// Converge and Swap share one mutex: with the newcomer's first swap frame
// held at a latch, a re-join and a swap to a third pair race on two
// threads. Whichever runs first, the other waits for all of it, so every
// shard ends on one version and the fleet answers as a solo engine over the
// third pair.
TEST_F(RouterTest, ConvergeAndSwapDoNotInterleave) {
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0);
  const WireRequest second = SwapTo(RandomEmbeddings(kRows, 25),
                                    RandomEmbeddings(kTargets, 28), "second");
  Result<std::string> swapped = fleet.router().Swap(second);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  fleet.ReplaceShard(0, source_, target_);
  ASSERT_TRUE(fleet.router().Quarantine(0).ok());
  // The cap only turns a deadlock into a failure instead of a hang.
  auto owned_latch = std::make_unique<GateHandler>(
      fleet.handler(0), std::chrono::milliseconds(10'000), "swap ");
  GateHandler& latch = *owned_latch;
  fleet.WrapHandler(0, std::move(owned_latch));

  const Matrix source3 = RandomEmbeddings(kRows, /*seed=*/35);
  const Matrix target3 = RandomEmbeddings(kTargets, /*seed=*/38);
  const WireRequest third = SwapTo(source3, target3, "third");
  Status converged;
  Result<std::string> reswapped = Status::Internal("swap never ran");
  std::thread rejoin([&] { converged = fleet.router().Converge(0); });
  std::thread swap([&] { reswapped = fleet.router().Swap(third); });
  EXPECT_TRUE(latch.WaitForArrival(std::chrono::milliseconds(10'000)));
  latch.Release();
  rejoin.join();
  swap.join();
  ASSERT_TRUE(converged.ok()) << converged.ToString();
  ASSERT_TRUE(reswapped.ok()) << reswapped.status().ToString();
  ASSERT_TRUE(fleet.router().Readmit(0).ok());

  const uint64_t version = fleet.ShardVersion(1);
  EXPECT_EQ(fleet.ShardVersion(0), version);
  Result<WireResponse> routed =
      fleet.router().Query(MatchRequest(AlgorithmPreset::kCsls));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->version, version);
  EXPECT_EQ(routed->values, SoloCsls(source3, target3));
  EXPECT_EQ(fleet.router().Stats().version_mismatches, 0u);
}

// Partial-coverage policy: with degrade on, losing every owner of a range
// yields the covered rows + coverage annotation instead of kUnavailable —
// and the covered rows stay bit-identical to the solo answer.
TEST_F(RouterTest, DegradePolicyAnswersCoveredRangesWhenOwnerDies) {
  RouterConfig config;
  config.retry.max_attempts = 1;
  config.partial_policy = PartialPolicy::kDegrade;
  Fleet fleet(source_, target_, 2, 1, /*replicas=*/0, config);
  const WireRequest request = MatchRequest(AlgorithmPreset::kCsls);
  const std::vector<int32_t> expected = SoloAnswer(request, 1);

  fleet.StopShard(0);
  Result<WireResponse> degraded = fleet.router().Query(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->values.size(), expected.size());
  ASSERT_EQ(degraded->coverage.size(), 1u);
  const auto [lo, hi] = degraded->coverage[0];
  // Shard 1 owns the second half of the rows; shard 0's half is gone.
  EXPECT_EQ(hi, kRows);
  for (size_t row = 0; row < expected.size(); ++row) {
    if (row >= lo && row < hi) {
      EXPECT_EQ(degraded->values[row], expected[row]) << "row " << row;
    } else {
      EXPECT_EQ(degraded->values[row], -1) << "row " << row;
    }
  }
  const RouterStatsSnapshot stats = fleet.router().Stats();
  EXPECT_EQ(stats.degraded, 1u) << stats.ToJson().Dump();
  EXPECT_EQ(stats.queries, stats.ok + stats.degraded + stats.failed);

  // Full outage still refuses: degrade never fabricates from nothing.
  fleet.StopShard(1);
  EXPECT_FALSE(fleet.router().Query(request).ok());
}

TEST_F(RouterTest, FleetHealthAggregatesShardHealth) {
  Fleet fleet(source_, target_, 2, 1, 0);
  // Prime the channels.
  ASSERT_TRUE(fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf)).ok());
  Result<JsonValue> health = JsonValue::Parse(fleet.router().FleetHealthJson());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->GetString("role").value_or(""), "router");
  const JsonValue::Array* shards = health->GetArray("shards").value_or(nullptr);
  ASSERT_TRUE(shards != nullptr && shards->size() == 2u) << health->Dump();
  for (const JsonValue& shard : *shards) {
    const JsonValue* shard_health = shard.Find("health");
    ASSERT_NE(shard_health, nullptr) << shard.Dump();
    EXPECT_NE(shard_health->Find("queue_depth"), nullptr);
    EXPECT_NE(shard_health->Find("pairs"), nullptr);
  }
  fleet.StopShard(1);
  Result<JsonValue> degraded =
      JsonValue::Parse(fleet.router().FleetHealthJson());
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  shards = degraded->GetArray("shards").value_or(nullptr);
  ASSERT_TRUE(shards != nullptr && shards->size() == 2u) << degraded->Dump();
  EXPECT_NE((*shards)[1].Find("error"), nullptr) << degraded->Dump();
  EXPECT_EQ((*shards)[1].Find("health"), nullptr) << degraded->Dump();
  EXPECT_EQ(ChannelStates(fleet.router()),
            (std::vector<std::string>{"up", "down"}));
}

// A channel the router has only probed through `health` reads `up`, as one a
// query went through does.
TEST_F(RouterTest, HealthProbeMarksAnsweringChannelsUp) {
  Fleet fleet(source_, target_, 2, 1, 0);
  EXPECT_EQ(ChannelStates(fleet.router()),
            (std::vector<std::string>{"unknown", "unknown"}));
  fleet.router().FleetHealthJson();
  EXPECT_EQ(ChannelStates(fleet.router()),
            (std::vector<std::string>{"up", "up"}));
}

// `health` and `shards` render a channel through one function: each entry
// of health's shards is the same channel object as in `shards`, plus its
// live `health`, and the breaker is {state, opens, half_opens, closes} in
// both.
TEST_F(RouterTest, HealthAndShardsRenderTheSameChannel) {
  Fleet fleet(source_, target_, 2, 1, 0);
  ASSERT_TRUE(fleet.router().Query(MatchRequest(AlgorithmPreset::kDInf)).ok());
  Result<JsonValue> health = JsonValue::Parse(fleet.router().FleetHealthJson());
  Result<JsonValue> shards = JsonValue::Parse(fleet.router().ShardsJson());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  const JsonValue::Array* in_health =
      health->GetArray("shards").value_or(nullptr);
  const JsonValue::Array* channels =
      shards->GetArray("channels").value_or(nullptr);
  ASSERT_TRUE(in_health != nullptr && channels != nullptr);
  ASSERT_EQ(in_health->size(), 2u);
  ASSERT_EQ(channels->size(), 2u);
  for (size_t i = 0; i < channels->size(); ++i) {
    JsonValue::Object channel = (*in_health)[i].AsObject();
    EXPECT_EQ(channel.erase("health"), 1u);
    EXPECT_EQ(JsonValue(channel).Dump(), (*channels)[i].Dump());
    const JsonValue* breaker = (*channels)[i].Find("breaker");
    ASSERT_NE(breaker, nullptr) << (*channels)[i].Dump();
    EXPECT_EQ(breaker->GetString("state").value_or(""), "closed");
    for (const char* key : {"opens", "half_opens", "closes"}) {
      EXPECT_EQ(breaker->GetInt(key).value_or(-1), 0) << key;
    }
  }
}

}  // namespace
}  // namespace entmatcher

// serve: an open loop at one fixed offered rate against an in-process
// MatchServer with the result cache off, so every request reaches an engine.
// One generator thread submits on schedule, one collector thread completes
// the futures, and a writer thread hot-swaps the pair about once a second,
// alternating two seeded versions. Bypasses the router and routed ranges.
#include <algorithm>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "arms.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "matching/engine.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using entmatcher::AlgorithmPreset;
using entmatcher::MatchEngine;
using entmatcher::MatchOptions;
using entmatcher::MatchServer;
using entmatcher::Matrix;
using entmatcher::Result;
using entmatcher::ServeQueryKind;
using entmatcher::ServeRequest;
using entmatcher::ServeResponse;
using entmatcher::ServerStatsSnapshot;
using entmatcher::Status;

namespace {

// Busy threads: 3 serve workers at 1 kernel thread each, plus the generator
// (mostly asleep), the collector (polling), the writer (one swap a second)
// and the scheduler — within the host's 4 cores.
constexpr size_t kServeWorkers = 3;
constexpr size_t kKernelThreads = 1;
// Set-ups measured: each takes well under a second, and the median of more
// of them holds setup_s steadier.
constexpr size_t kSetups = 7;
constexpr size_t kMaxBatch = 8;
constexpr uint64_t kFlushMicros = 200;
constexpr double kSwapPeriodS = 1.0;
// The fixed offered rate (requests/s): about a quarter of the capacity the
// parent build measured on the reference host (see perfbench/README.md). At
// half capacity the queue amplified neighbours' CPU steal on a shared host
// into p50 swings of 2x between runs.
constexpr double kOfferedRate = 100.0;
constexpr double kTinyRate = 40.0;
constexpr const char* kPairName = "p";

// CSLS match and top-10 share a score signature, so they batch together.
const std::vector<QueryKind> kKinds = {
    {"csls-match", AlgorithmPreset::kCsls, 0},
    {"csls-top10", AlgorithmPreset::kCsls, 10},
    {"dinf-match", AlgorithmPreset::kDInf, 0},
    {"rinf-wr-match", AlgorithmPreset::kRinfWr, 0}};

ServeRequest MakeRequest(const QueryKind& kind) {
  ServeRequest request;
  request.pair = kPairName;
  request.options = entmatcher::MakePreset(kind.preset);
  if (kind.topk > 0) {
    request.kind = ServeQueryKind::kTopK;
    request.topk = kind.topk;
  }
  return request;
}

/// Everything the serve set-up builds; rebuilt per set-up repetition.
struct ServeSetup {
  Pair versions[2];  // [0] = A (odd snapshot versions), [1] = B (even)
  std::unique_ptr<MatchServer> server;
  std::unique_ptr<PresetSuite> suite;
};

struct Outstanding {
  size_t kind = 0;
  uint64_t request = 0;
  Clock::time_point scheduled;
  std::future<ServeResponse> future;
};

/// What the open-loop segments of one phase measured.
struct OpenLoopResult {
  std::vector<double> latency_ms;  // OK responses, from scheduled send time
  std::vector<double> late_ms;     // generator lateness per request
  std::vector<double> swap_ms;
  std::map<uint64_t, double> first_on_version;
  size_t ok = 0;
  double elapsed_s = 0.0;
};

/// One open-loop segment: generator, collector and swap writer for
/// `seconds`, appending to `out`. `swaps` counts SwapPair calls across
/// segments so version parity is global.
void RunOpenLoop(ServeSetup* setup, const VersionedAnswers& answers,
                 const std::vector<size_t>& kinds, double rate, double seconds,
                 uint64_t* swaps, uint64_t* next_id, Ledger* ledger,
                 OpenLoopResult* out) {
  MatchServer* server = setup->server.get();
  std::mutex mu;
  std::deque<Outstanding> handoff;
  bool generator_done = false;
  size_t sent = 0;
  const Clock::time_point t0 = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const uint64_t first_id = *next_id;

  std::thread generator([&] {
    for (size_t i = 0;; ++i) {
      const Clock::time_point scheduled =
          t0 + std::chrono::duration_cast<Clock::duration>(period * i);
      if (scheduled >= end) break;
      std::this_thread::sleep_until(scheduled);
      Outstanding item;
      item.kind = kinds[i % kinds.size()];
      item.request = first_id + i;
      item.scheduled = scheduled;
      out->late_ms.push_back(MsBetween(scheduled, Clock::now()));
      {
        Span span("serve.submit", item.request);
        item.future = server->Submit(MakeRequest(kKinds[item.kind]));
      }
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(std::move(item));
      ++sent;
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  });

  std::thread collector([&] {
    std::list<Outstanding> pending;
    Clock::time_point last = t0;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (generator_done && pending.empty()) break;
      }
      bool any = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const Clock::time_point done = Clock::now();
        last = done;
        any = true;
        const ServeResponse response = it->future.get();
        Tracer::Global().Record("serve.request", it->scheduled, done, 0,
                                it->request);
        const double ms = MsBetween(it->scheduled, done);
        const std::string name = kKinds[it->kind].name;
        if (!response.status.ok()) {
          ledger->Fail(name + ": " + response.status.ToString());
        } else {
          const std::vector<int32_t>& want =
              answers.Of(response.snapshot_version, it->kind);
          const bool same =
              kKinds[it->kind].topk > 0
                  ? std::equal(response.topk.begin(), response.topk.end(),
                               want.begin(), want.end())
                  : response.assignment.target_of_source == want;
          ledger->Check(same, name +
                                  ": response differs from a solo engine run "
                                  "on snapshot v" +
                                  std::to_string(response.snapshot_version));
          out->latency_ms.push_back(ms);
          ++out->ok;
          out->first_on_version.emplace(response.snapshot_version, ms);
        }
        it = pending.erase(it);
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    out->elapsed_s += MsBetween(t0, last) / 1e3;
  });

  std::thread writer([&] {
    // Swaps sit mid-period, so even a segment shorter than one period swaps.
    const double offset_s = std::min(kSwapPeriodS, seconds) / 2;
    for (int k = 0;; ++k) {
      const Clock::time_point at =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offset_s + kSwapPeriodS * k));
      if (at >= end) break;
      std::this_thread::sleep_until(at);
      const uint64_t swap = ++*swaps;
      const Pair& next = setup->versions[swap % 2 == 1 ? 1 : 0];
      Matrix source(next.source);
      Matrix target(next.target);
      Span span("serve.swap");
      Result<uint64_t> version =
          server->SwapPair(kPairName, std::move(source), std::move(target));
      out->swap_ms.push_back(span.Close());
      ledger->Check(version.ok() && *version == swap + 1,
                    "SwapPair did not publish the expected version");
    }
  });

  generator.join();
  writer.join();
  collector.join();
  *next_id = first_id + sent;
}

}  // namespace

Status RunServe(const RunConfig& config, Report* report, Ledger* ledger,
                std::string* skipped) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4 && !config.tiny()) {
    *skipped = "the serve workload's fixed rate assumes 4 cores (3 workers "
               "plus the load generator); this host has " +
               std::to_string(cores);
    return Status::OK();
  }
  entmatcher::SetNumThreads(kKernelThreads);
  const double rate = config.tiny() ? kTinyRate : kOfferedRate;
  report->InfoNum("em_num_threads", static_cast<double>(kKernelThreads));
  report->InfoNum("serve_workers", static_cast<double>(kServeWorkers));
  report->InfoNum("max_batch", static_cast<double>(kMaxBatch));
  report->InfoNum("offered_rate", rate);
  report->InfoNum("swap_period_s", kSwapPeriodS);

  PairShape shape;
  shape.rows = config.tiny() ? 300 : 1000;
  shape.noise = 0.8;
  const SuiteShape suite_shape = ServingArmsShape(shape, config.tiny());
  report->InfoNum("rows", static_cast<double>(shape.rows));

  ServeSetup setup;
  EM_RETURN_NOT_OK(MeasureSetup(config, kSetups, [&]() -> Status {
    setup = ServeSetup();
    for (uint64_t v = 0; v < 2; ++v) {
      EM_ASSIGN_OR_RETURN(setup.versions[v],
                          MakePair(config.work_dir, "serve-v" + std::to_string(v),
                                   shape, DeriveSeed(config.seed, 10 + v)));
    }
    entmatcher::MatchServerConfig server_config;
    server_config.serve_workers = kServeWorkers;
    server_config.max_batch = kMaxBatch;
    server_config.flush_micros = kFlushMicros;
    server_config.queue_capacity = 4096;
    server_config.result_cache_bytes = 0;
    EM_ASSIGN_OR_RETURN(setup.server, MatchServer::Create(server_config));
    EM_RETURN_NOT_OK(setup.server->LoadPair(kPairName,
                                            Matrix(setup.versions[0].source),
                                            Matrix(setup.versions[0].target)));
    EM_RETURN_NOT_OK(setup.server->Start());
    EM_ASSIGN_OR_RETURN(setup.suite,
                        PresetSuite::Create(setup.versions[0],
                                            setup.versions[0], suite_shape));
    return Status::OK();
  }, report));

  EM_ASSIGN_OR_RETURN(const VersionedAnswers answers,
                      SoloAnswers(setup.versions, kKinds));

  // The preset arms on this pair, at the serve workers' kernel threads.
  setup.suite->Cold(ledger);
  report->InfoNum("dinf_accuracy", setup.suite->DInfAccuracy());

  // The request mix: blocks holding each kind once, in seeded order.
  entmatcher::Rng rng(DeriveSeed(config.seed, 20));
  std::vector<size_t> kinds;
  for (size_t block = 0; block < 4096; ++block) {
    size_t order[] = {0, 1, 2, 3};
    for (size_t i = kKinds.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    kinds.insert(kinds.end(), order, order + kKinds.size());
  }

  // The server drains between segments. `loop` and the Stats() pair keep
  // the last phase — in a traced run, the traced half.
  uint64_t swaps = 0;
  uint64_t next_id = 1;
  OpenLoopResult loop;
  ServerStatsSnapshot before;
  ServerStatsSnapshot after;
  MeasurePhases(config, config.tiny() ? 2 : 24,
                [&](double seconds, size_t segments, Report* into) {
    loop = OpenLoopResult();
    before = setup.server->Stats();
    const LoopResult arms = InterleaveArms(
        setup.suite.get(), ledger, seconds, segments, [&](double s) {
          RunOpenLoop(&setup, answers, kinds, rate, s, &swaps, &next_id,
                      ledger, &loop);
        });
    after = setup.server->Stats();
    into->Set("qps",
              loop.elapsed_s > 0.0
                  ? static_cast<double>(loop.ok) / loop.elapsed_s
                  : 0.0,
              "1/s");
    into->Set("latency_p50_ms", Percentile(loop.latency_ms, 0.50), "ms");
    into->Set("latency_p99_ms", Percentile(loop.latency_ms, 0.99), "ms");
    into->Samples("latency_ms", loop.latency_ms.size());
    into->Set("swap_ms", Median(loop.swap_ms), "ms");
    into->Samples("swap_ms", loop.swap_ms.size());
    ReportLoop(arms, into, /*closed_loop_e2e=*/false);
    into->Set("peak_rss_mb", SelfPeakRssMb(), "MB");
  }, report);
  if (!config.trace) {
    setup.server->Shutdown();
    return Status::OK();
  }

  // Solo execution per request kind over the current snapshot.
  Result<MatchEngine> solo = MatchEngine::Over(
      setup.server->CurrentSnapshot(kPairName), MatchOptions());
  if (!solo.ok()) return solo.status();
  double exec_sum = 0.0;
  for (const QueryKind& kind : kKinds) {
    const std::string name = std::string("serve.exec.") + kind.name;
    EM_RETURN_NOT_OK(SoloAnswer(&*solo, kind).status());  // warm
    for (size_t rep = 0; rep < (config.tiny() ? 2u : 7u); ++rep) {
      Span span(name);
      EM_RETURN_NOT_OK(SoloAnswer(&*solo, kind).status());
    }
    const double exec_ms = Median(Tracer::Global().DurationsMs(name));
    report->Set(std::string("serve.exec_ms.") + kind.name, exec_ms, "ms");
    exec_sum += exec_ms;
  }

  auto delta = [&](uint64_t ServerStatsSnapshot::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double completed = delta(&ServerStatsSnapshot::completed);
  const double batches = delta(&ServerStatsSnapshot::batches);
  const double latency_sum_us =
      after.latency_mean_micros * static_cast<double>(after.latency_samples) -
      before.latency_mean_micros * static_cast<double>(before.latency_samples);
  const double samples = delta(&ServerStatsSnapshot::latency_samples);
  const double server_mean_ms =
      samples > 0.0 ? latency_sum_us / samples / 1e3 : 0.0;
  report->Set("serve.submit_us",
              Median(Tracer::Global().DurationsMs("serve.submit")) * 1e3, "us");
  report->Set("serve.wait_ms",
              server_mean_ms - exec_sum / static_cast<double>(kKinds.size()),
              "ms");
  report->Set("serve.batch_size_mean",
              batches > 0.0 ? completed / batches : 0.0, "count");
  report->Set("serve.passes_per_query",
              completed > 0.0 ? batches / completed : 0.0, "ratio");
  // The server keeps one maximum since it started, so this one covers the
  // whole run (both halves), not only the traced half as the deltas do.
  report->Set("serve.queue_depth_max",
              static_cast<double>(after.max_queue_depth), "count");
  std::vector<double> post_swap;
  for (const auto& [version, ms] : loop.first_on_version) {
    if (version > 1) post_swap.push_back(ms);
  }
  report->Set("serve.post_swap_ms", Median(post_swap), "ms");
  report->Set("serve.rejected", delta(&ServerStatsSnapshot::rejected),
              "count");
  report->Set("serve.shed", delta(&ServerStatsSnapshot::shed), "count");
  report->Set("serve.timed_out", delta(&ServerStatsSnapshot::timed_out),
              "count");
  report->Set("serve.failed", delta(&ServerStatsSnapshot::failed), "count");
  report->Set("gen.late_ms_p99", Percentile(loop.late_ms, 0.99), "ms");

  setup.server->Shutdown();
  entmatcher::SetNumThreads(kKernelThreads);
  setup.suite->Staged(config.tiny() ? 1 : 2, ledger);
  setup.suite->Layers(config.tiny() ? 2 : 5, ledger);
  setup.suite->ReportLayers(report);
  ReportStagedCheck(*setup.suite, report);
  return Status::OK();
}

}  // namespace perfbench

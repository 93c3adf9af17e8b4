// fleet: a closed loop of one caller calling Router::Query on 4 real shard
// processes (entmatcher_cli, 1 kernel thread and 1 serve worker each), all
// on 2 cores. Calls alternate CSLS match and CSLS top-5, so both shard
// compute and router overhead show. The only workload with scatter, `route`
// sub-queries, sockets and merge.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "arms.h"
#include "common/thread_pool.h"
#include "fleet/merge.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "la/matrix_io.h"
#include "serve/client.h"
#include "workloads.h"

namespace perfbench {

using entmatcher::AlgorithmPreset;
using entmatcher::RangePart;
using entmatcher::Result;
using entmatcher::Router;
using entmatcher::RouterStatsSnapshot;
using entmatcher::ShardManager;
using entmatcher::ShardPlan;
using entmatcher::Status;
using entmatcher::WireRequest;
using entmatcher::WireResponse;

namespace {

constexpr int kShards = 4;
// The whole fleet — shards, router and caller — shares 2 cores. A query
// keeps every shard busy at once; on all 4 cores of a shared host, whichever
// core a neighbour's CPU steal hit set the query's time, and the fleet's
// p50 swung 3x between runs minutes apart. On 2 cores the shards queue
// behind each other instead, which steal moves far less.
constexpr size_t kFleetCores = 2;
// Set-ups measured: each takes well under a second, and the median of more
// of them holds setup_s steadier.
constexpr size_t kSetups = 7;
constexpr size_t kKernelThreads = 1;
// One caller: every query already keeps all 4 shards busy.
constexpr size_t kCallers = 1;
// The served pair's name in the plan and on the wire.
const std::string kPairName = "p";

const std::vector<QueryKind> kKinds = {
    {"csls-match", AlgorithmPreset::kCsls, 0},
    {"csls-top5", AlgorithmPreset::kCsls, 5}};

WireRequest MakeRequest(const QueryKind& kind) {
  WireRequest request;
  request.pair = kPairName;
  request.algorithm = kind.preset;
  if (kind.topk > 0) {
    request.verb = WireRequest::Verb::kTopK;
    request.k = kind.topk;
  } else {
    request.verb = WireRequest::Verb::kMatch;
  }
  return request;
}

/// Restricts the calling thread, and so every thread and shard process it
/// starts afterwards, to the last `count` cores it may run on (the first
/// core tends to take the host's interrupts).
Status PinToCores(size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  size_t taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (taken < count) {
    return Status::Internal("fewer than " + std::to_string(count) +
                            " cores available");
  }
  if (::sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return Status::Internal("sched_setaffinity failed");
  }
  return Status::OK();
}

/// The running fleet; rebuilt per set-up repetition.
struct FleetSetup {
  Pair versions[2];  // [0] = A (odd snapshot versions), [1] = B (even)
  ShardPlan plan;
  // Destroyed router first, then the manager that stops the shards.
  std::unique_ptr<ShardManager> manager;
  std::unique_ptr<Router> router;
  std::unique_ptr<PresetSuite> suite;

  void Stop() {
    router.reset();
    if (manager) manager->StopAll();
  }
  ~FleetSetup() { Stop(); }
};

/// What the closed-loop segments of one phase measured.
struct ClosedLoopResult {
  std::vector<double> latency_ms;
  size_t ok = 0;
  double elapsed_s = 0.0;
  double shard_cpu_ms = 0.0;
  double self_cpu_ms = 0.0;
};

double ShardCpuMs(const ShardManager& manager) {
  double total = 0.0;
  for (const entmatcher::ShardProcessStatus& shard : manager.Status_()) {
    if (shard.running) total += std::max(0.0, ProcessCpuMs(shard.pid));
  }
  return total;
}

/// One closed-loop segment: the caller alternates the query kinds for
/// `seconds`, appending to `out`. Each merged answer must equal the solo
/// engine's on the pair version it names.
void RunClosedLoop(FleetSetup* fleet, double seconds,
                   const VersionedAnswers& answers, uint64_t* next_id,
                   Ledger* ledger, ClosedLoopResult* out) {
  const double shard_cpu_before = ShardCpuMs(*fleet->manager);
  const double self_cpu_before = SelfCpuMs();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (size_t q = 0; Clock::now() < end; ++q) {
    const size_t kind = q % kKinds.size();
    Span span("fleet.query", (*next_id)++);
    Result<WireResponse> answer =
        fleet->router->Query(MakeRequest(kKinds[kind]));
    const double ms = span.Close();
    if (!answer.ok()) {
      ledger->Fail("routed query: " + answer.status().ToString());
      continue;
    }
    const bool same = answer->values == answers.Of(answer->version, kind);
    ledger->Check(same, std::string("routed ") + kKinds[kind].name +
                            " differs from a solo engine run");
    if (same) {
      out->latency_ms.push_back(ms);
      ++out->ok;
    }
  }
  out->elapsed_s += MsBetween(t0, Clock::now()) / 1e3;
  out->shard_cpu_ms += ShardCpuMs(*fleet->manager) - shard_cpu_before;
  out->self_cpu_ms += SelfCpuMs() - self_cpu_before;
}

double FleetPeakRssMb(const ShardManager& manager) {
  double largest = 0.0;
  for (const entmatcher::ShardProcessStatus& shard : manager.Status_()) {
    if (shard.running) {
      largest = std::max(largest, ProcessPeakRssMb(shard.pid));
    }
  }
  return SelfPeakRssMb() + largest;
}

}  // namespace

Status RunFleet(const RunConfig& config, Report* report, Ledger* ledger,
                std::string* skipped) {
  const unsigned cores = std::thread::hardware_concurrency();
  report->InfoNum("shards", kShards);
  report->InfoNum("fleet_cores", kFleetCores);
  report->InfoNum("callers", kCallers);
  report->InfoNum("shard_kernel_threads", kKernelThreads);
  report->InfoNum("shard_serve_workers", 1);
  report->InfoNum("em_num_threads", kKernelThreads);
  if (cores < kFleetCores) {
    *skipped = "the fleet runs on " + std::to_string(kFleetCores) +
               " cores; this host has " + std::to_string(cores);
    return Status::OK();
  }
  if (config.cli_path.empty() || ::access(config.cli_path.c_str(), X_OK) != 0) {
    *skipped = "shard binary not found: '" + config.cli_path + "'";
    return Status::OK();
  }
  EM_RETURN_NOT_OK(PinToCores(kFleetCores));
  entmatcher::SetNumThreads(kKernelThreads);

  PairShape shape;
  shape.rows = config.tiny() ? 300 : 1000;
  shape.noise = 0.8;
  const SuiteShape suite_shape = ServingArmsShape(shape, config.tiny());
  report->InfoNum("rows", static_cast<double>(shape.rows));
  const std::string dir = config.work_dir;
  const std::string paths[2][2] = {{dir + "/a.src.emat", dir + "/a.tgt.emat"},
                                   {dir + "/b.src.emat", dir + "/b.tgt.emat"}};

  // Set-up: inputs, shard processes until healthy, router, one warm query
  // of each kind, preset arms.
  FleetSetup fleet;
  EM_RETURN_NOT_OK(MeasureSetup(config, kSetups, [&]() -> Status {
    fleet.Stop();
    fleet.suite.reset();
    for (uint64_t v = 0; v < 2; ++v) {
      EM_ASSIGN_OR_RETURN(fleet.versions[v],
                          MakePair(dir, "fleet-v" + std::to_string(v), shape,
                                   DeriveSeed(config.seed, 30 + v)));
      EM_RETURN_NOT_OK(entmatcher::WriteMatrixBinary(fleet.versions[v].source,
                                                     paths[v][0]));
      EM_RETURN_NOT_OK(entmatcher::WriteMatrixBinary(fleet.versions[v].target,
                                                     paths[v][1]));
    }
    EM_ASSIGN_OR_RETURN(fleet.plan,
                        ShardPlan::EvenSplit(kPairName, paths[0][0],
                                             paths[0][1], "", shape.rows,
                                             kShards, dir, /*replicas=*/0));
    const std::string plan_path = dir + "/plan.json";
    EM_RETURN_NOT_OK(fleet.plan.Save(plan_path));
    entmatcher::ShardCommand command =
        entmatcher::ShardCommand::SelfServe(plan_path, config.cli_path);
    command.argv.push_back("--threads=" + std::to_string(kKernelThreads));
    command.argv.push_back("--serve-workers=1");
    fleet.manager = std::make_unique<ShardManager>();
    EM_RETURN_NOT_OK(fleet.manager->Start(fleet.plan, command));
    EM_RETURN_NOT_OK(fleet.manager->WaitHealthy(60'000'000));
    EM_ASSIGN_OR_RETURN(fleet.router,
                        Router::Create(fleet.plan, entmatcher::RouterConfig()));
    for (const QueryKind& kind : kKinds) {
      Result<WireResponse> warm = fleet.router->Query(MakeRequest(kind));
      if (!warm.ok()) return warm.status();
    }
    EM_ASSIGN_OR_RETURN(fleet.suite,
                        PresetSuite::Create(fleet.versions[0],
                                            fleet.versions[0], suite_shape));
    return Status::OK();
  }, report));

  EM_ASSIGN_OR_RETURN(const VersionedAnswers answers,
                      SoloAnswers(fleet.versions, kKinds));

  // The preset arms on this pair, at the shards' kernel threads.
  fleet.suite->Cold(ledger);
  report->InfoNum("dinf_accuracy", fleet.suite->DInfAccuracy());

  // After each closed-loop segment, two swap fan-outs move the pair to the
  // B files and back to A. `loop` and the Stats() pair keep the last phase
  // — in a traced run, the traced half.
  uint64_t swaps = 0;
  uint64_t next_id = 1;
  ClosedLoopResult loop;
  RouterStatsSnapshot before;
  RouterStatsSnapshot after;
  MeasurePhases(config, config.tiny() ? 2 : 24,
                [&](double seconds, size_t segments, Report* into) {
    loop = ClosedLoopResult();
    std::vector<double> swap_ms;
    before = fleet.router->Stats();
    const LoopResult arms = InterleaveArms(
        fleet.suite.get(), ledger, seconds, segments, [&](double s) {
          RunClosedLoop(&fleet, s, answers, &next_id, ledger, &loop);
          for (int i = 0; i < 2; ++i) {
            const uint64_t k = ++swaps;
            WireRequest swap;
            swap.verb = WireRequest::Verb::kSwap;
            swap.pair = kPairName;
            swap.source_path = paths[k % 2][0];
            swap.target_path = paths[k % 2][1];
            Span span("fleet.swap");
            Result<std::string> swapped = fleet.router->Swap(swap);
            swap_ms.push_back(span.Close());
            ledger->Check(swapped.ok(), "router swap fan-out failed");
          }
        });
    after = fleet.router->Stats();
    into->Set("qps",
              loop.elapsed_s > 0.0
                  ? static_cast<double>(loop.ok) / loop.elapsed_s
                  : 0.0,
              "1/s");
    into->Set("latency_p50_ms", Percentile(loop.latency_ms, 0.50), "ms");
    into->Set("latency_p99_ms", Percentile(loop.latency_ms, 0.99), "ms");
    into->Samples("latency_ms", loop.latency_ms.size());
    into->Set("swap_ms", Median(swap_ms), "ms");
    into->Samples("swap_ms", swap_ms.size());
    ReportLoop(arms, into, /*closed_loop_e2e=*/false);
    into->Set("peak_rss_mb", FleetPeakRssMb(*fleet.manager), "MB");
  }, report);
  if (!config.trace) {
    fleet.Stop();
    return Status::OK();
  }

  const double queries =
      static_cast<double>(after.queries - before.queries);
  auto delta = [&](uint64_t RouterStatsSnapshot::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  report->Set("fleet.subqueries_per_query",
              queries > 0.0
                  ? delta(&RouterStatsSnapshot::subqueries) / queries
                  : 0.0,
              "ratio");
  report->Set("fleet.failovers", delta(&RouterStatsSnapshot::failovers),
              "count");
  report->Set("fleet.hedges", delta(&RouterStatsSnapshot::hedges), "count");
  report->Set("fleet.version_mismatches",
              delta(&RouterStatsSnapshot::version_mismatches), "count");
  report->Set("fleet.breaker_opens", delta(&RouterStatsSnapshot::breaker_opens),
              "count");
  report->Set("fleet.shard_cpu_ms_per_query",
              queries > 0.0 ? loop.shard_cpu_ms / queries : 0.0, "ms");
  report->Set("fleet.router_cpu_ms_per_query",
              queries > 0.0 ? loop.self_cpu_ms / queries : 0.0, "ms");

  // Direct `route` sub-queries to each shard (one caller, idle fleet), the
  // same requests routed, and the merge on the captured parts.
  const size_t reps = config.tiny() ? 3 : 15;
  std::vector<RangePart> parts[2];
  double slowest_shard_ms = 0.0;
  std::vector<double> shard_rtts;
  for (const entmatcher::RangeSpec& range : fleet.plan.pairs[0].ranges) {
    const entmatcher::ShardSpec* shard =
        fleet.plan.FindShard(range.shards.front());
    Result<entmatcher::ServeClient> client =
        entmatcher::ServeClient::Connect(shard->socket_path);
    if (!client.ok()) return client.status();
    std::vector<double> rtts;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (size_t kind = 0; kind < kKinds.size(); ++kind) {
        WireRequest request = MakeRequest(kKinds[kind]);
        request.route = true;
        request.row_begin = range.begin;
        request.row_end = range.end;
        Span span("fleet.shard_rtt", next_id++);
        Result<WireResponse> answer = client->Call(request);
        rtts.push_back(span.Close());
        if (!answer.ok() || !answer->status.ok()) {
          ledger->Fail("direct shard sub-query failed");
          continue;
        }
        ledger->Ok();
        if (rep == 0) {
          RangePart part;
          part.row_begin = answer->row_begin;
          part.row_end = answer->row_end;
          part.version = answer->version;
          part.values = answer->values;
          part.scores = answer->scores;
          parts[kind].push_back(std::move(part));
        }
      }
    }
    const double median = Median(rtts);
    shard_rtts.push_back(median);
    slowest_shard_ms = std::max(slowest_shard_ms, median);
  }
  std::vector<double> routed;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t kind = 0; kind < kKinds.size(); ++kind) {
      Span span("fleet.routed_solo", next_id++);
      Result<WireResponse> answer =
          fleet.router->Query(MakeRequest(kKinds[kind]));
      routed.push_back(span.Close());
      ledger->Check(
          answer.ok() && answer->values == answers.Of(answer->version, kind),
          "routed query on an idle fleet failed or differed");
    }
  }
  report->Set("fleet.shard_rtt_ms", Median(shard_rtts), "ms");
  report->Set("fleet.router_self_ms", Median(routed) - slowest_shard_ms,
              "ms");
  std::vector<double> merge_us;
  for (size_t rep = 0; rep < reps * 4; ++rep) {
    for (size_t kind = 0; kind < kKinds.size(); ++kind) {
      const bool topk = kKinds[kind].topk > 0;
      Span span(topk ? "fleet.merge_topk" : "fleet.merge_match");
      Result<std::vector<int32_t>> merged =
          topk ? entmatcher::MergeTopK(shape.rows, parts[kind])
               : entmatcher::MergeAssignments(shape.rows, parts[kind]);
      merge_us.push_back(span.Close() * 1e3);
      if (rep == 0) {
        ledger->Check(merged.ok() && !parts[kind].empty() &&
                          *merged == answers.Of(parts[kind][0].version, kind),
                      "merge of captured shard parts differs");
      }
    }
  }
  report->Set("fleet.merge_us", Median(merge_us), "us");
  fleet.Stop();

  fleet.suite->Staged(config.tiny() ? 1 : 2, ledger);
  fleet.suite->Layers(config.tiny() ? 2 : 5, ledger);
  fleet.suite->ReportLayers(report);
  ReportStagedCheck(*fleet.suite, report);
  return Status::OK();
}

}  // namespace perfbench

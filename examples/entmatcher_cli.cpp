// entmatcher_cli — a command-line front end for the whole pipeline, working
// on OpenEA-style dataset directories and binary embedding files.
//
// Every command that reads embeddings (index build, match, serve, swap,
// fleet plan, fleet shards, mmap pack) takes either format and tells them
// apart by their magic: EMAT (written by `embed`) is read onto the heap,
// EMBF (written by `mmap pack` / `mmap synth-pair`) is mapped read-only, so
// a 1M x 128d pair is matched without materializing either side.
//
// Flags follow a command's fixed arguments, in any order, as --name=VALUE
// (--no-spawn alone). A malformed value prints `error: bad --name= value:
// VALUE` and an unknown flag the usage line (`query` hands it to the wire
// parser with its other request words); each exits 1.
//
// The server flags: `serve` and each fleet shard build their server from
// them, and `fleet serve` forwards them verbatim to the shards it spawns:
//   --threads=N --serve-workers=N --cache-bytes=N --max-batch=N
//   --flush-micros=N --queue-capacity=N --shed-watermark=N
//
//   entmatcher_cli generate <pair> <dir> [scale]
//       Generate a benchmark dataset (e.g. D-Z, S-F, DW-W, D-Z+, FB-MUL)
//       and save it under <dir>.
//   entmatcher_cli stats <dir>
//       Print the dataset statistics (the Table 3 row).
//   entmatcher_cli embed <dir> <G|R|N|NR> <out_prefix>
//       Compute unified embeddings and write <out_prefix>.src.emat /
//       <out_prefix>.tgt.emat.
//   entmatcher_cli index build <tgt.emat> <out.eidx>
//                  [--backend=ivf|hnsw|exact] [--dataset=DIR]
//                  [--lists=N] [--kmeans-iters=N] [--seed=N]
//                  [--M=N] [--ef-construction=N]
//       Build a candidate index over the target embeddings and serialize
//       it (EIDX2 binary). --backend picks
//       the candidate-generation strategy: ivf (default; --lists=0
//       auto-sizes to ~sqrt(num_targets), --kmeans-iters), hnsw (graph
//       index; --M link budget, --ef-construction build beam), or exact.
//       --dataset=DIR slices the matrix to the dataset's test-split
//       target rows first — required when the index will be used with
//       `match` over a dataset, which scores over exactly those rows.
//   entmatcher_cli index stats <index.eidx>
//       Print the list/level occupancy of a saved index.
//   entmatcher_cli mmap pack <in.emat> <out.embf>
//       Convert a binary matrix into an EMBF store (the mmap-able
//       row-major format).
//   entmatcher_cli mmap synth-pair <out_prefix> --rows=N --dim=N
//                  [--clusters=N] [--seed=N] [--noise=F] [--spread=F]
//       Stream a synthetic identity-aligned embedding pair to
//       <out_prefix>.src.embf / <out_prefix>.tgt.embf with O(dim) live
//       memory — the 1M-entity fixture generator.
//   entmatcher_cli mmap info <store.embf>
//       Print an EMBF store's shape and byte accounting.
//   entmatcher_cli match <dir> <src.emat> <tgt.emat> <algo>
//                  [--workspace-budget-bytes=N] [--threads=N]
//                  [--kernel-tier=scalar|avx2|avx512|auto]
//                  [--index=PATH --candidates=N [--nprobe=N] [--ef=N]]
//                  [out_links.tsv]
//       Run one matching algorithm (DInf, CSLS, RInf, RInf-wr, RInf-pb,
//       Sink., Hun., SMat, RL) and report P/R/F1 plus the peak tracked
//       workspace of the run; optionally save the predicted links. With a
//       workspace budget, algorithms whose score and scratch buffers would
//       exceed N bytes are rejected up front with a resource-exhausted
//       error (the paper's "Mem: No" verdict). With --index/--candidates,
//       scoring is restricted to the top-N index candidates per source and
//       the sparse pipeline runs in O(n*candidates) workspace.
//       --kernel-tier forces a vector ISA tier (same grammar as the
//       EM_KERNEL_TIER environment variable; the flag wins) and fails when
//       the CPU or build lacks it. --nprobe tunes the IVF probe width and
//       --ef the HNSW layer-0 beam; each backend reads only its own knob.
//       With <dir> = "-" the dataset is skipped entirely: the engine
//       matches the raw pair and reports identity-alignment accuracy (row i
//       of the source gold-matches row i of the target — the synthetic EMBF
//       pairs' convention) instead of test-split P/R/F1.
//   entmatcher_cli eval <dir> <links.tsv>
//       Score previously saved predicted links against the test split.
//   entmatcher_cli serve <src.emat> <tgt.emat> [--socket=PATH]
//                  [server flags] [--kernel-tier=TIER]
//                  [--workspace-budget-bytes=N]
//                  [--index=PATH [--degrade-watermark=N]
//                   [--degrade-candidates=N] [--degrade-nprobe=N]
//                   [--degrade-ef=N]]
//       Hold the embedding pair as an immutable snapshot and serve match /
//       top-k queries over a unix-domain socket (length-prefixed protocol,
//       src/serve/protocol.h), micro-batching compatible queries into
//       shared similarity passes that run on a pool of --serve-workers=N
//       execution threads (0/default: EM_SERVE_WORKERS, then hardware
//       concurrency). --cache-bytes=N arms the cross-request result cache
//       with an N-byte LRU budget (0/default: off). Runs until a client
//       sends `shutdown`. --shed-watermark sheds new requests
//       (kUnavailable + retry-after hint) once the queue is that deep;
//       with --index attached, --degrade-watermark instead rewrites
//       eligible dense matches onto the sparse candidate path under load.
//       A fault plan in EM_FAULT_PLAN (seeded by EM_FAULT_SEED) is armed
//       at startup; see src/common/fault.h for the grammar.
//   entmatcher_cli swap <src.emat> <tgt.emat> [--pair=NAME] [--socket=PATH]
//                  [--index=PATH]
//       Hot-swap the embeddings of a pair on a running `serve` instance:
//       sends the `swap` admin request; the server loads the files
//       (server-side paths!), builds and warms a new snapshot, and
//       atomically publishes it. In-flight batches finish on the old
//       version; the old snapshot is reclaimed once they drain.
//   entmatcher_cli query [--socket=PATH] [--retries=N]
//                                        match <ALGO> [timeout_us=N]
//                                      | topk <ALGO> <k> [timeout_us=N]
//                                      | stats | health | shutdown
//                                      | swap <pair> <src> <tgt> [index=PATH]
//       One query against a running `serve` instance. --retries=N retries
//       transient failures (kUnavailable sheds, transport drops, expired
//       deadlines) up to N attempts with capped exponential backoff (swap
//       is never retried: it is not idempotent-safe over a flaky link).
//   entmatcher_cli fleet plan <name> <src.emat> <tgt.emat> --shards=N
//                  --out=PLAN [--replicas=R] [--socket-dir=DIR] [--index=PATH]
//       Write a v1 shard-plan JSON: the pair's source rows split evenly
//       into N ranges, each owned by its primary shard plus R replicas
//       (round-robin). Every shard loads the full pair (CSLS/RInf
//       normalize globally); the plan partitions the ANSWER space.
//   entmatcher_cli fleet serve --plan=PLAN [--shard=K] [--socket=PATH]
//                  [--no-spawn] [--hedge-micros=N] [--retries=N]
//                  [--restart-policy=SPEC] [--breaker-failures=N]
//                  [--breaker-cooldown-us=N] [--partial=unavailable|degrade]
//                  [server flags]
//       With --shard=K: run ONE shard — a normal MatchServer loading every
//       pair the plan assigns to shard K, listening on the plan's socket
//       for that shard. Without --shard: run the ROUTER — spawn one child
//       process per plan shard (self-exec; --no-spawn skips this and
//       expects the shards to already be up), wait for them to get
//       healthy, then serve the same wire protocol on --socket,
//       scatter-gathering match/topk across shards with per-range
//       failover (and hedging when --hedge-micros > 0). `query shutdown`
//       on the router stops the whole fleet.
//       Self-healing (spawn mode): a FleetSupervisor restarts crashed
//       shards under --restart-policy ("off", "on", or a comma list:
//       max_strikes=N,backoff_us=N,max_backoff_us=N,multiplier=F,
//       window_us=N,boot_budget_us=N,seed=N) and re-admits each one only
//       after converging it to the surviving fleet's snapshot version.
//       --breaker-failures=N consecutive transport failures open a
//       per-shard circuit breaker (fail-fast) that half-opens after
//       --breaker-cooldown-us (0 failures disables breakers).
//       --partial=degrade answers with the covered ranges (coverage=
//       annotation, -1 elsewhere) when a range has no live owner instead
//       of refusing with kUnavailable.
//   entmatcher_cli fleet query [--socket=PATH] [--retries=N] <request...>
//       One query against the fleet front end (same grammar as `query`,
//       plus `shards`: the plan and every channel's state, admission and
//       breaker {state, opens, half_opens, closes}).
//   entmatcher_cli fleet swap <pair> <src.emat> <tgt.emat> [index=PATH]
//                  [--socket=PATH]
//       All-or-nothing swap fan-out: the router forwards the swap to every
//       shard owning <pair>; success requires every owner to confirm the
//       same new version. On partial failure reads spanning diverged
//       shards refuse to merge until a repair swap converges the fleet.
//   entmatcher_cli fleet status [--socket=PATH]
//       The router's `health`: its stats, every channel as `shards` shows
//       it plus that shard's own `health` (the shard's `stats` and six
//       health fields), and the supervisor's policy and restart ledger.
//       Like every status reply, one JSON document from one writer.
//
// --threads=N overrides the worker count for this process (equivalent to
// the EM_NUM_THREADS environment variable; the flag wins).

#include <climits>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "fleet/supervisor.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "datagen/benchmarks.h"
#include "datagen/embf_synth.h"
#include "embedding/embedding.h"
#include "embedding/provider.h"
#include "eval/metrics.h"
#include "index/candidate_index.h"
#include "kg/dataset_io.h"
#include "kg/io.h"
#include "la/kernels/dispatch.h"
#include "la/matrix_io.h"
#include "la/mmap_store.h"
#include "matching/engine.h"
#include "matching/pipeline.h"
#include "serve/client.h"
#include "serve/socket_server.h"

namespace {

using namespace entmatcher;

constexpr const char* kDefaultSocketPath = "entmatcher.sock";

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return EXIT_FAILURE;
}

int Usage() {
  std::cerr << "usage: entmatcher_cli "
               "generate|stats|embed|index|mmap|match|eval|serve|swap|query|"
               "fleet ... (see source header)\n";
  return EXIT_FAILURE;
}

/// One entry of a command's flag table: "--<name>=VALUE", or exactly
/// "--<name>" when `bare`. `set` takes the VALUE and returns the error to
/// print after "error: ", or "" once it has taken the value.
struct Flag {
  std::string name;
  std::function<std::string(const std::string&)> set;
  bool bare = false;
};

/// An unsigned decimal flag handed to `store`; a value above `max` is
/// refused, not wrapped.
Flag Uint(const std::string& name, std::function<void(uint64_t)> store,
          uint64_t max = UINT64_MAX) {
  return {name, [name, store, max](const std::string& text) {
            uint64_t value = 0;
            if (!ParseUint64(text, &value)) {
              return "bad --" + name + "= value: " + text;
            }
            if (value > max) {
              return "bad --" + name + "= value: " + text + " is above " +
                     std::to_string(max);
            }
            store(value);
            return std::string();
          }};
}

/// An unsigned decimal flag stored into `*dest`.
template <typename T>
Flag Uint(const std::string& name, T* dest, uint64_t max = UINT64_MAX) {
  return Uint(
      name, [dest](uint64_t value) { *dest = static_cast<T>(value); }, max);
}

Flag Double(const std::string& name, double* dest) {
  return {name, [name, dest](const std::string& text) {
            char* end = nullptr;
            const double value = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0') {
              return "bad --" + name + "= value: " + text;
            }
            *dest = value;
            return std::string();
          }};
}

Flag Text(const std::string& name, std::string* dest) {
  return {name, [dest](const std::string& text) {
            *dest = text;
            return std::string();
          }};
}

/// --threads=N: this process's kernel threads (EM_NUM_THREADS; the flag
/// wins).
Flag ThreadsFlag() {
  return Uint("threads",
              [](uint64_t n) { SetNumThreads(static_cast<size_t>(n)); });
}

/// --kernel-tier=<tier|auto>: forces the tier and reports it.
Flag KernelTierFlag() {
  return {"kernel-tier", [](const std::string& text) {
            const Result<KernelTier> tier =
                text == "auto" ? Result<KernelTier>(BestAvailableKernelTier())
                               : ParseKernelTier(text);
            if (!tier.ok()) return tier.status().ToString();
            Status forced = SetKernelTier(*tier);
            if (!forced.ok()) return forced.ToString();
            std::cout << "kernel tier: " << KernelTierName(ActiveKernelTier())
                      << " (cpu: " << DetectedCpuFeatures() << ")\n";
            return std::string();
          }};
}

/// The server flags (see the header), read into `*config`. With
/// `forwarded`, every one taken is also kept there as given: the argv tail
/// `fleet serve` hands the shards it spawns.
std::vector<Flag> ServerFlags(MatchServerConfig* config,
                              std::vector<std::string>* forwarded) {
  std::vector<Flag> flags = {
      ThreadsFlag(),
      Uint("serve-workers", &config->serve_workers),
      Uint("cache-bytes", &config->result_cache_bytes),
      Uint("max-batch", &config->max_batch),
      Uint("flush-micros", &config->flush_micros),
      Uint("queue-capacity", &config->queue_capacity),
      Uint("shed-watermark", &config->shed_watermark)};
  if (forwarded != nullptr) {
    for (Flag& flag : flags) {
      flag.set = [name = flag.name, set = flag.set,
                  forwarded](const std::string& text) {
        const std::string error = set(text);
        if (error.empty()) forwarded->push_back("--" + name + "=" + text);
        return error;
      };
    }
  }
  return flags;
}

/// Walks argv[first, argc) in order: a word naming one of `flags` sets it,
/// and every other word goes to `take_word` (a command's positional words).
/// A word `take_word` refuses, or any when it is null, gets the usage line.
/// Returns false once it has printed an error or the usage line.
bool ParseArgs(int argc, char** argv, int first,
               const std::vector<Flag>& flags,
               const std::function<bool(const std::string&)>& take_word =
                   nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    std::string value;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      const bool bare = eq == std::string::npos;
      const std::string name = arg.substr(2, bare ? eq : eq - 2);
      for (const Flag& candidate : flags) {
        if (candidate.name == name && candidate.bare == bare) flag = &candidate;
      }
      if (!bare) value = arg.substr(eq + 1);
    }
    if (flag != nullptr) {
      const std::string error = flag->set(value);
      if (!error.empty()) {
        std::cerr << "error: " << error << "\n";
        return false;
      }
    } else if (!take_word || !take_word(arg)) {
      Usage();
      return false;
    }
  }
  return true;
}

/// Serves `pairs` from one MatchServer on `socket_path` until a client
/// sends `shutdown`: `serve` (one pair, rows 0 = no row count to check) and
/// each fleet shard (the pairs its plan assigns it, checked against the
/// plan's row counts). `announce` prints the start-up line once the socket
/// listens; `final_stats` prints the server's stats after it stops.
int RunServer(const MatchServerConfig& config,
              const std::vector<PairSpec>& pairs,
              const std::string& socket_path,
              const std::function<void(const MatchServer&)>& announce,
              bool final_stats) {
  Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
  if (!server.ok()) return Fail(server.status());
  for (const PairSpec& pair : pairs) {
    Result<Matrix> src = ReadMatrixBinary(pair.source_path);
    if (!src.ok()) return Fail(src.status());
    Result<Matrix> tgt = ReadMatrixBinary(pair.target_path);
    if (!tgt.ok()) return Fail(tgt.status());
    if (pair.rows != 0 && src->rows() != pair.rows) {
      return Fail(Status::FailedPrecondition(
          "plan says pair '" + pair.name + "' has " +
          std::to_string(pair.rows) + " rows but " + pair.source_path +
          " has " + std::to_string(src->rows())));
    }
    Status loaded = (*server)->LoadPair(pair.name, std::move(src).value(),
                                        std::move(tgt).value());
    if (!loaded.ok()) return Fail(loaded);
    if (!pair.index_path.empty()) {
      Result<CandidateIndex> index = CandidateIndex::Load(pair.index_path);
      if (!index.ok()) return Fail(index.status());
      Status attached = (*server)->AttachIndex(
          pair.name,
          std::make_unique<CandidateIndex>(std::move(index).value()));
      if (!attached.ok()) return Fail(attached);
    }
  }
  Status started = (*server)->Start();
  if (!started.ok()) return Fail(started);
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(server->get(), socket_path);
  if (!front.ok()) return Fail(front.status());
  announce(**server);
  (*front)->WaitForShutdown();
  (*front)->Stop();
  (*server)->Shutdown();
  if (final_stats) {
    std::cout << "final stats: " << (*server)->Stats().ToJson().Dump()
              << "\n";
  }
  return EXIT_SUCCESS;
}

/// Sends `request` to the server on `socket_path` and prints the answer: an
/// admin verb's text, or a match / top-k summary with a preview. Transient
/// failures are retried `retries` times, except for swap: a retry after an
/// ambiguous transport failure could publish it twice.
int SendAndPrint(const std::string& socket_path, const WireRequest& request,
                 uint32_t retries) {
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  if (!client.ok()) return Fail(client.status());
  RetryPolicy policy;
  policy.max_attempts = retries + 1;
  Result<WireResponse> response =
      request.verb == WireRequest::Verb::kSwap
          ? client->Call(request)
          : client->CallWithRetry(request, policy);
  if (!response.ok()) return Fail(response.status());
  if (!response->status.ok()) return Fail(response->status);
  if (request.verb == WireRequest::Verb::kMatch) {
    size_t matched = 0;
    for (int32_t target : response->values) matched += (target >= 0);
    std::cout << "assignment: " << matched << "/" << response->values.size()
              << " sources matched\n";
  } else if (request.verb == WireRequest::Verb::kTopK) {
    const size_t rows =
        request.k > 0 ? response->values.size() / request.k : 0;
    std::cout << "topk: " << request.k << " candidates for " << rows
              << " sources\n";
  } else {
    std::cout << response->text << "\n";
    return EXIT_SUCCESS;
  }
  const size_t preview = std::min<size_t>(response->values.size(), 8);
  for (size_t i = 0; i < preview; ++i) {
    std::cout << (i > 0 ? " " : "") << response->values[i];
  }
  if (preview > 0) {
    std::cout << (response->values.size() > preview ? " ...\n" : "\n");
  }
  return EXIT_SUCCESS;
}

Result<EmbeddingSetting> ParseSetting(const std::string& text) {
  if (text == "G") return EmbeddingSetting::kGcnStruct;
  if (text == "R") return EmbeddingSetting::kRreaStruct;
  if (text == "N") return EmbeddingSetting::kNameOnly;
  if (text == "NR") return EmbeddingSetting::kNameRrea;
  return Status::InvalidArgument("unknown embedding setting: " + text);
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const double scale = argc > 4 ? std::atof(argv[4]) : 1.0;
  Result<KgPairDataset> dataset = GenerateDataset(argv[2], scale);
  if (!dataset.ok()) return Fail(dataset.status());
  Status saved = SaveDatasetDir(*dataset, argv[3]);
  if (!saved.ok()) return Fail(saved);
  std::cout << "wrote " << dataset->name << " (" << dataset->TotalEntities()
            << " entities, " << dataset->TotalTriples() << " triples, "
            << dataset->gold.size() << " links) to " << argv[3] << "\n";
  return EXIT_SUCCESS;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<KgPairDataset> dataset = LoadDatasetDir(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  std::cout << "name:        " << dataset->name << "\n"
            << "entities:    " << dataset->TotalEntities() << "\n"
            << "relations:   " << dataset->TotalRelations() << "\n"
            << "triples:     " << dataset->TotalTriples() << "\n"
            << "gold links:  " << dataset->gold.size() << " ("
            << dataset->gold.size() - dataset->gold.CountOneToOneLinks()
            << " non-1-to-1)\n"
            << "splits:      " << dataset->split.train.size() << " train / "
            << dataset->split.valid.size() << " valid / "
            << dataset->split.test.size() << " test\n"
            << "avg degree:  " << FormatDouble(dataset->AverageDegree(), 2)
            << "\n"
            << "test cands:  " << dataset->test_source_entities.size() << " x "
            << dataset->test_target_entities.size() << "\n";
  return EXIT_SUCCESS;
}

int CmdEmbed(int argc, char** argv) {
  if (argc < 5) return Usage();
  Result<KgPairDataset> dataset = LoadDatasetDir(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  Result<EmbeddingSetting> setting = ParseSetting(argv[3]);
  if (!setting.ok()) return Fail(setting.status());
  Result<EmbeddingPair> embeddings = ComputeEmbeddings(*dataset, *setting);
  if (!embeddings.ok()) return Fail(embeddings.status());
  const std::string prefix = argv[4];
  Status s = WriteMatrixBinary(embeddings->source, prefix + ".src.emat");
  if (!s.ok()) return Fail(s);
  s = WriteMatrixBinary(embeddings->target, prefix + ".tgt.emat");
  if (!s.ok()) return Fail(s);
  std::cout << "wrote " << prefix << ".{src,tgt}.emat ("
            << embeddings->source.rows() << "+" << embeddings->target.rows()
            << " x " << embeddings->dim() << ")\n";
  return EXIT_SUCCESS;
}

void PrintIndexStats(const CandidateIndex& index) {
  const CandidateListStats stats = index.Stats();
  std::cout << "backend:     " << CandidateBackendName(stats.backend) << "\n"
            << "targets:     " << stats.num_targets << "\n"
            << "dim:         " << index.dim() << "\n"
            << (stats.backend == CandidateBackendKind::kHnsw ? "levels:      "
                                                             : "lists:       ")
            << stats.num_lists << "\n"
            << "list sizes:  min " << stats.min_list_size << " / mean "
            << FormatDouble(stats.mean_list_size, 1) << " / max "
            << stats.max_list_size << "\n";
  for (size_t b = 0; b < stats.size_histogram.size(); ++b) {
    const size_t count = stats.size_histogram[b];
    if (count == 0) continue;
    std::cout << "  [2^" << b << ", 2^" << (b + 1) << ") targets: " << count
              << (count == 1 ? " list\n" : " lists\n");
  }
}

int CmdIndex(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub == "build") {
    if (argc < 5) return Usage();
    CandidateIndexOptions options;
    std::string dataset_dir;
    const Flag backend = {"backend", [&options](const std::string& text) {
                            Result<CandidateBackendKind> parsed =
                                ParseCandidateBackend(text);
                            if (!parsed.ok()) return parsed.status().ToString();
                            options.backend = *parsed;
                            return std::string();
                          }};
    if (!ParseArgs(argc, argv, 5,
                   {Text("dataset", &dataset_dir), backend,
                    Uint("lists", &options.num_lists),
                    Uint("kmeans-iters", &options.kmeans_iterations),
                    Uint("seed", &options.seed),
                    Uint("M", &options.hnsw_max_links),
                    Uint("ef-construction", &options.hnsw_ef_construction)})) {
      return EXIT_FAILURE;
    }
    Result<Matrix> read = ReadMatrixBinary(argv[3]);
    if (!read.ok()) return Fail(read.status());
    Matrix target = std::move(read).value();
    if (!dataset_dir.empty()) {
      // `match` scores over the dataset's test-target rows, not the full
      // matrix; slice the same rows so the index describes the same target
      // set the engine will see.
      Result<KgPairDataset> dataset = LoadDatasetDir(dataset_dir);
      if (!dataset.ok()) return Fail(dataset.status());
      if (dataset->test_target_entities.empty()) {
        std::cerr << "error: dataset has no test split to slice targets by\n";
        return EXIT_FAILURE;
      }
      Result<Matrix> sliced =
          ExtractRows(target, dataset->test_target_entities);
      if (!sliced.ok()) return Fail(sliced.status());
      target = std::move(sliced).value();
      std::cout << "sliced to " << target.rows()
                << " test-split target rows from " << dataset_dir << "\n";
    }
    Result<CandidateIndex> index = CandidateIndex::Build(target, options);
    if (!index.ok()) return Fail(index.status());
    Status saved = index->Save(argv[4]);
    if (!saved.ok()) return Fail(saved);
    std::cout << "wrote " << argv[4] << " ("
              << CandidateBackendName(index->backend()) << " over "
              << index->num_targets() << " targets)\n";
    PrintIndexStats(*index);
    return EXIT_SUCCESS;
  }
  if (sub == "stats") {
    if (argc < 4) return Usage();
    Result<CandidateIndex> index = CandidateIndex::Load(argv[3]);
    if (!index.ok()) return Fail(index.status());
    PrintIndexStats(*index);
    return EXIT_SUCCESS;
  }
  return Usage();
}

int CmdMmap(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string sub = argv[2];
  if (sub == "pack") {
    if (argc < 5) return Usage();
    Result<Matrix> matrix = ReadMatrixBinary(argv[3]);
    if (!matrix.ok()) return Fail(matrix.status());
    Status written = MmapStore::Write(*matrix, argv[4]);
    if (!written.ok()) return Fail(written);
    std::cout << "wrote " << argv[4] << " (" << matrix->rows() << " x "
              << matrix->cols() << ", "
              << FormatBytes(kEmbfHeaderBytes + matrix->ByteSize()) << ")\n";
    return EXIT_SUCCESS;
  }
  if (sub == "synth-pair") {
    EmbfSynthOptions options;
    const std::string prefix = argv[3];
    if (!ParseArgs(argc, argv, 4,
                   {Uint("rows", &options.rows), Uint("dim", &options.dim),
                    Uint("clusters", &options.clusters),
                    Uint("seed", &options.seed),
                    Double("noise", &options.noise),
                    Double("spread", &options.spread)})) {
      return EXIT_FAILURE;
    }
    const std::string source_path = prefix + ".src.embf";
    const std::string target_path = prefix + ".tgt.embf";
    Status written = SynthEmbfPair(options, source_path, target_path);
    if (!written.ok()) return Fail(written);
    std::cout << "wrote " << source_path << " and " << target_path << " ("
              << options.rows << " x " << options.dim << " each, "
              << options.clusters << " clusters, seed " << options.seed
              << ")\n";
    return EXIT_SUCCESS;
  }
  if (sub == "info") {
    // The shape comes from the header alone: no payload page is read.
    Result<MmapStore> store = MmapStore::Open(argv[3]);
    if (!store.ok()) return Fail(store.status());
    std::cout << "rows:          " << store->rows() << "\n"
              << "cols:          " << store->cols() << "\n"
              << "logical bytes: " << store->logical_bytes() << " ("
              << FormatBytes(store->logical_bytes()) << ")\n"
              << "tracked bytes: " << store->tracked_bytes() << "\n";
    return EXIT_SUCCESS;
  }
  return Usage();
}

int CmdMatch(int argc, char** argv) {
  if (argc < 6) return Usage();
  const std::string dataset_dir = argv[2];
  const bool raw_pair = dataset_dir == "-";
  Result<AlgorithmPreset> algorithm = ParsePreset(argv[5]);
  if (!algorithm.ok()) return Fail(algorithm.status());

  MatchOptions options = MakePreset(*algorithm);
  std::string out_path;
  std::string index_path;
  std::optional<CandidateIndex> index;  // must outlive the run
  // One optional word, the output path; an unrecognized flag (e.g. the
  // removed --precision=) is an error, not an output path.
  const auto take_out_path = [&out_path](const std::string& word) {
    if (!out_path.empty() || word.rfind("--", 0) == 0) return false;
    out_path = word;
    return true;
  };
  const std::vector<Flag> flags = {
      Text("index", &index_path), KernelTierFlag(), ThreadsFlag(),
      Uint("workspace-budget-bytes", &options.workspace_budget_bytes),
      Uint("candidates", &options.num_candidates),
      Uint("nprobe", &options.index_nprobe), Uint("ef", &options.index_ef)};
  if (!ParseArgs(argc, argv, 6, flags, take_out_path)) {
    return EXIT_FAILURE;
  }
  if (!index_path.empty()) {
    if (options.num_candidates == 0) {
      std::cerr << "error: --index requires --candidates=N (N >= 1)\n";
      return EXIT_FAILURE;
    }
    Result<CandidateIndex> loaded = CandidateIndex::Load(index_path);
    if (!loaded.ok()) return Fail(loaded.status());
    index = std::move(loaded).value();
    options.candidate_index = &*index;
  } else if (options.num_candidates > 0) {
    std::cerr << "error: --candidates requires --index=PATH\n";
    return EXIT_FAILURE;
  }

  Result<Matrix> src = ReadMatrixBinary(argv[3]);
  if (!src.ok()) return Fail(src.status());
  Result<Matrix> tgt = ReadMatrixBinary(argv[4]);
  if (!tgt.ok()) return Fail(tgt.status());
  // Over the workspace budget is the paper's "Mem: No" verdict, not an error.
  const auto refuse = [&](const Status& status) {
    if (status.code() != StatusCode::kResourceExhausted) return Fail(status);
    std::cerr << PresetName(*algorithm)
              << ": does not fit the workspace budget of "
              << FormatBytes(options.workspace_budget_bytes) << " ("
              << status.message() << ")\n";
    return EXIT_FAILURE;
  };
  const auto print_peak = [](const MatchRun& run) {
    std::cout << "peak tracked workspace: " << run.peak_workspace_bytes
              << " bytes (" << FormatBytes(run.peak_workspace_bytes)
              << "; arena high-water "
              << FormatBytes(run.arena_high_water_bytes) << ")\n";
  };

  if (raw_pair) {
    // Dataset-less mode: drive the engine over the raw pair. Row i of the
    // source is gold-matched to row i of the target (the synthetic EMBF
    // convention), so identity hits stand in for test-split metrics. The
    // meter starts with both inputs read, where RunMatching's starts.
    const size_t n = src->rows();
    const MatchMeter meter;
    Result<MatchEngine> engine = MatchEngine::Create(
        std::move(src).value(), std::move(tgt).value(), options);
    if (!engine.ok()) return Fail(engine.status());
    Result<Assignment> assignment = engine->Match();
    if (!assignment.ok()) return refuse(assignment.status());
    MatchRun run;
    run.arena_high_water_bytes = engine->workspace().high_water_bytes();
    meter.Stop(&run);
    size_t identity_hits = 0;
    for (size_t i = 0; i < assignment->size(); ++i) {
      identity_hits +=
          assignment->target_of_source[i] == static_cast<int32_t>(i);
    }
    std::cout << PresetName(*algorithm) << ": matched "
              << assignment->NumMatched() << "/" << n << ", identity acc="
              << FormatDouble(n > 0 ? static_cast<double>(identity_hits) /
                                          static_cast<double>(n)
                                    : 0.0,
                              3)
              << " (" << FormatDouble(run.seconds, 2) << "s)\n";
    print_peak(run);
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) return Fail(Status::IoError("cannot write: " + out_path));
      for (size_t i = 0; i < assignment->size(); ++i) {
        if (assignment->target_of_source[i] == Assignment::kUnmatched) continue;
        out << i << "\t" << assignment->target_of_source[i] << "\n";
      }
      std::cout << "wrote " << assignment->NumMatched() << " links to "
                << out_path << "\n";
    }
    return EXIT_SUCCESS;
  }

  Result<KgPairDataset> dataset = LoadDatasetDir(dataset_dir);
  if (!dataset.ok()) return Fail(dataset.status());
  EmbeddingPair embeddings;
  embeddings.source = std::move(src).value();
  embeddings.target = std::move(tgt).value();
  Result<MatchRun> run = RunMatching(*dataset, embeddings, options);
  if (!run.ok()) return refuse(run.status());

  const EvalMetrics m = EvaluatePredictions(run->predicted, dataset->split.test);
  std::cout << PresetName(*algorithm) << ": P=" << FormatDouble(m.precision, 3)
            << " R=" << FormatDouble(m.recall, 3)
            << " F1=" << FormatDouble(m.f1, 3) << " ("
            << FormatDouble(run->seconds, 2) << "s)\n";
  print_peak(*run);
  if (!out_path.empty()) {
    Status s = WriteLinksTsv(run->predicted, out_path);
    if (!s.ok()) return Fail(s);
    std::cout << "wrote " << run->predicted.size() << " links to " << out_path
              << "\n";
  }
  return EXIT_SUCCESS;
}

int CmdServe(int argc, char** argv) {
  if (argc < 4) return Usage();
  // A client vanishing mid-write must surface as EPIPE on the frame layer
  // (mapped to kUnavailable), never kill the server process.
  std::signal(SIGPIPE, SIG_IGN);

  std::string socket_path = kDefaultSocketPath;
  PairSpec pair{"default", argv[2], argv[3], /*index_path=*/"", /*rows=*/0,
                /*ranges=*/{}};
  MatchServerConfig config;
  std::vector<Flag> flags = ServerFlags(&config, nullptr);
  flags.insert(
      flags.end(),
      {Text("socket", &socket_path), Text("index", &pair.index_path),
       KernelTierFlag(),
       Uint("workspace-budget-bytes", &config.workspace_budget_bytes),
       Uint("degrade-watermark", &config.degrade_watermark),
       Uint("degrade-candidates", &config.degrade_num_candidates),
       Uint("degrade-nprobe", &config.degrade_nprobe),
       Uint("degrade-ef", &config.degrade_ef)});
  if (!ParseArgs(argc, argv, 4, flags)) return EXIT_FAILURE;

  // Chaos runs configure themselves through the environment so the exact
  // same command line works with and without an armed plan.
  Status faults = ArmFaultInjectionFromEnv();
  if (!faults.ok()) return Fail(faults);
  const auto announce = [&](const MatchServer& server) {
    std::cout << "serving on " << socket_path
              << " (threads=" << GetNumThreads()
              << ", serve_workers=" << server.serve_workers()
              << ", cache=" << (config.result_cache_bytes == 0
                                    ? std::string("off")
                                    : FormatBytes(config.result_cache_bytes))
              << ", max_batch=" << config.max_batch
              << ", flush=" << config.flush_micros
              << " us, queue=" << config.queue_capacity << ", budget="
              << (config.workspace_budget_bytes == 0
                      ? std::string("unlimited")
                      : FormatBytes(config.workspace_budget_bytes))
              << ", fault_plan=" << FaultInjector::Global().Fingerprint()
              << "); send `entmatcher_cli query shutdown` to stop\n";
  };
  return RunServer(config, {pair}, socket_path, announce,
                   /*final_stats=*/true);
}

int CmdSwap(int argc, char** argv) {
  if (argc < 4) return Usage();
  WireRequest request;
  request.verb = WireRequest::Verb::kSwap;
  request.pair = "default";
  request.source_path = argv[2];
  request.target_path = argv[3];
  std::string socket_path = kDefaultSocketPath;
  if (!ParseArgs(argc, argv, 4,
                 {Text("socket", &socket_path), Text("pair", &request.pair),
                  Text("index", &request.index_path)})) {
    return EXIT_FAILURE;
  }
  return SendAndPrint(socket_path, request, /*retries=*/0);
}

/// `query` and `fleet query`: every word that is not --socket= or
/// --retries= is the request line, which the wire parser reads (one
/// grammar, serve/protocol.h, for both surfaces).
int CmdQuery(int argc, char** argv, int first = 2) {
  std::string socket_path = kDefaultSocketPath;
  uint32_t retries = 0;  // retries are opt-in on the CLI
  std::vector<std::string> words;
  if (!ParseArgs(argc, argv, first,
                 {Text("socket", &socket_path), Uint("retries", &retries)},
                 [&words](const std::string& word) {
                   words.push_back(word);
                   return true;
                 })) {
    return EXIT_FAILURE;
  }
  if (words.empty()) return Usage();
  Result<WireRequest> request = ParseRequest(JoinStrings(words, " "));
  if (!request.ok()) return Fail(request.status());
  return SendAndPrint(socket_path, *request, retries);
}

int CmdFleetPlan(int argc, char** argv) {
  if (argc < 6) return Usage();
  const std::string name = argv[3];
  const std::string source_path = argv[4];
  const std::string target_path = argv[5];
  std::string out_path;
  std::string socket_dir = ".";
  std::string index_path;
  uint64_t num_shards = 0;
  uint64_t replicas = 0;
  if (!ParseArgs(argc, argv, 6,
                 {Text("out", &out_path), Text("socket-dir", &socket_dir),
                  Text("index", &index_path),
                  Uint("shards", &num_shards, INT_MAX),
                  Uint("replicas", &replicas, INT_MAX)})) {
    return EXIT_FAILURE;
  }
  if (out_path.empty() || num_shards == 0) return Usage();
  // The decision space is the pair's source rows — read the header-bearing
  // matrix to size the ranges.
  Result<Matrix> src = ReadMatrixBinary(source_path);
  if (!src.ok()) return Fail(src.status());
  Result<ShardPlan> plan = ShardPlan::EvenSplit(
      name, source_path, target_path, index_path, src->rows(),
      static_cast<int>(num_shards), socket_dir, static_cast<int>(replicas));
  if (!plan.ok()) return Fail(plan.status());
  Status saved = plan->Save(out_path);
  if (!saved.ok()) return Fail(saved);
  std::cout << "plan: " << out_path << " (" << num_shards << " shards, "
            << src->rows() << " rows, replicas=" << replicas << ")\n";
  return EXIT_SUCCESS;
}

int CmdFleetServe(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string plan_path;
  std::string socket_path = kDefaultSocketPath;
  std::optional<uint64_t> shard_id;
  bool spawn = true;
  RestartPolicy restart_policy;
  RouterConfig router_config;
  MatchServerConfig config;
  std::vector<std::string> shard_flags;  // forwarded to spawned shards
  std::vector<Flag> flags = ServerFlags(&config, &shard_flags);
  flags.insert(
      flags.end(),
      {Text("plan", &plan_path), Text("socket", &socket_path),
       {"no-spawn",
        [&spawn](const std::string&) {
          spawn = false;
          return std::string();
        },
        /*bare=*/true},
       {"restart-policy",
        [&restart_policy](const std::string& text) {
          Result<RestartPolicy> parsed = RestartPolicy::Parse(text);
          if (!parsed.ok()) return parsed.status().ToString();
          restart_policy = *parsed;
          return std::string();
        }},
       {"partial",
        [&router_config](const std::string& mode) {
          if (mode == "unavailable") {
            router_config.partial_policy = PartialPolicy::kUnavailable;
          } else if (mode == "degrade") {
            router_config.partial_policy = PartialPolicy::kDegrade;
          } else {
            return Status::InvalidArgument(
                       "--partial must be 'unavailable' or 'degrade', got '" +
                       mode + "'")
                .ToString();
          }
          return std::string();
        }},
       Uint("shard", [&shard_id](uint64_t id) { shard_id = id; }, INT_MAX),
       Uint("hedge-micros", &router_config.hedge_micros),
       Uint("retries",
            [&router_config](uint64_t n) {
              router_config.retry.max_attempts = static_cast<uint32_t>(n) + 1;
            }),
       Uint("breaker-failures", &router_config.breaker_failures),
       Uint("breaker-cooldown-us", &router_config.breaker_cooldown_micros)});
  if (!ParseArgs(argc, argv, 3, flags)) return EXIT_FAILURE;
  if (plan_path.empty()) return Usage();
  Result<ShardPlan> plan = ShardPlan::Load(plan_path);
  if (!plan.ok()) return Fail(plan.status());

  // Chaos plans arm per process: each shard inherits EM_FAULT_PLAN through
  // the environment, and the router arms it too, since the supervisor's
  // fleet.spawn and fleet.rejoin.swap points fire in this process.
  Status faults = ArmFaultInjectionFromEnv();
  if (!faults.ok()) return Fail(faults);

  if (shard_id.has_value()) {
    // One shard: a plain server over every pair the plan assigns it (the
    // FULL pair; the plan partitions answers, not data).
    const int id = static_cast<int>(*shard_id);
    const ShardSpec* shard = plan->FindShard(id);
    if (shard == nullptr) {
      return Fail(
          Status::NotFound("plan defines no shard " + std::to_string(id)));
    }
    std::vector<PairSpec> owned;
    for (const std::string& name : plan->PairsOwnedBy(id)) {
      owned.push_back(*plan->FindPair(name));
    }
    if (owned.empty()) {
      return Fail(Status::FailedPrecondition(
          "shard " + std::to_string(id) + " owns no ranges in the plan"));
    }
    const auto announce = [&](const MatchServer&) {
      std::cout << "shard " << id << " serving " << owned.size()
                << " pair(s) on " << shard->socket_path << "\n";
    };
    return RunServer(config, owned, shard->socket_path, announce,
                     /*final_stats=*/false);
  }

  ShardManager manager;
  if (spawn) {
    ShardCommand command = ShardCommand::SelfServe(plan_path);
    for (const std::string& flag : shard_flags) command.argv.push_back(flag);
    Status started = manager.Start(*plan, command);
    if (!started.ok()) return Fail(started);
    Status healthy = manager.WaitHealthy(15'000'000);
    if (!healthy.ok()) {
      manager.StopAll();
      return Fail(healthy);
    }
  }
  Result<std::unique_ptr<Router>> router =
      Router::Create(*plan, router_config);
  if (!router.ok()) {
    manager.StopAll();
    return Fail(router.status());
  }
  // Self-healing only makes sense when this process owns the shard
  // lifecycle: in --no-spawn mode an external operator does.
  std::unique_ptr<FleetSupervisor> supervisor;
  if (spawn && restart_policy.enabled) {
    supervisor = std::make_unique<FleetSupervisor>(
        &manager, router->get(), *plan, restart_policy);
    Status watching = supervisor->Start();
    if (!watching.ok()) {
      manager.StopAll();
      return Fail(watching);
    }
    (*router)->SetSupervisorStatus(
        [&supervisor] { return supervisor->StatusJson(); });
  }
  RouterHandler handler(router->get());
  Result<std::unique_ptr<SocketServer>> front =
      SocketServer::Start(&handler, socket_path);
  if (!front.ok()) {
    if (supervisor) supervisor->Stop();
    manager.StopAll();
    return Fail(front.status());
  }
  std::cout << "fleet: routing " << plan->shards.size() << " shard(s), "
            << plan->pairs.size() << " pair(s) on " << socket_path
            << (spawn ? "" : " (no-spawn)") << ", hedge="
            << router_config.hedge_micros << " us"
            << (supervisor
                    ? ", restart-policy=" + supervisor->policy().ToString()
                    : "")
            << "; send `entmatcher_cli fleet query shutdown` to stop\n";
  (*front)->WaitForShutdown();
  (*front)->Stop();
  // Teardown order matters: the supervisor stops FIRST so the manager's
  // kills below stay final instead of racing a restart.
  if (supervisor) {
    supervisor->Stop();
    std::cout << "supervisor: " << supervisor->StatusJson().Dump() << "\n";
  }
  std::cout << "router stats: " << (*router)->Stats().ToJson().Dump()
            << "\n";
  router->reset();  // drain stragglers before tearing down shards
  manager.StopAll();
  return EXIT_SUCCESS;
}

int CmdFleet(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub == "plan") return CmdFleetPlan(argc, argv);
  if (sub == "serve") return CmdFleetServe(argc, argv);
  if (sub == "query") return CmdQuery(argc, argv, /*first=*/3);
  // `swap` and `status` send one request to the router, never retried: it
  // fans a swap out sequentially and reports exactly which shards confirmed
  // (see Router::Swap).
  WireRequest request;
  std::string socket_path = kDefaultSocketPath;
  if (sub == "swap") {
    if (argc < 6) return Usage();
    request.verb = WireRequest::Verb::kSwap;
    request.pair = argv[3];
    request.source_path = argv[4];
    request.target_path = argv[5];
    const auto take_index = [&request](const std::string& word) {
      if (word.rfind("index=", 0) != 0) return false;
      request.index_path = word.substr(6);
      return true;
    };
    if (!ParseArgs(argc, argv, 6, {Text("socket", &socket_path)},
                   take_index)) {
      return EXIT_FAILURE;
    }
  } else if (sub == "status") {
    request.verb = WireRequest::Verb::kHealth;
    if (!ParseArgs(argc, argv, 3, {Text("socket", &socket_path)})) {
      return EXIT_FAILURE;
    }
  } else {
    return Usage();
  }
  return SendAndPrint(socket_path, request, /*retries=*/0);
}

int CmdEval(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<KgPairDataset> dataset = LoadDatasetDir(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  Result<AlignmentSet> predicted = ReadLinksTsv(argv[3]);
  if (!predicted.ok()) return Fail(predicted.status());
  const EvalMetrics m = EvaluatePredictions(*predicted, dataset->split.test);
  std::cout << "P=" << FormatDouble(m.precision, 3)
            << " R=" << FormatDouble(m.recall, 3)
            << " F1=" << FormatDouble(m.f1, 3) << " (" << m.correct << "/"
            << m.found << " correct, " << m.gold << " gold)\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "embed") return CmdEmbed(argc, argv);
  if (command == "index") return CmdIndex(argc, argv);
  if (command == "mmap") return CmdMmap(argc, argv);
  if (command == "match") return CmdMatch(argc, argv);
  if (command == "eval") return CmdEval(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "swap") return CmdSwap(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "fleet") return CmdFleet(argc, argv);
  return Usage();
}

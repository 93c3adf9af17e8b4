#include "serve/server.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/json.h"
#include "common/string_util.h"
#include "index/candidate_index.h"
#include "la/topk.h"
#include "matching/sparse_matchers.h"
#include "matching/sparse_transforms.h"

namespace entmatcher {

namespace {

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// config 0 -> EM_SERVE_WORKERS -> hardware concurrency (>= 1). Mirrors the
// EM_NUM_THREADS convention of the kernel thread pool.
size_t ResolveServeWorkers(size_t configured) {
  if (configured > 0) return configured;
  uint64_t value = 0;
  if (const char* env = std::getenv("EM_SERVE_WORKERS");
      env != nullptr && ParseUint64(env, &value) && value > 0) {
    return static_cast<size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

// Result-cache key: everything that determines the answer bytes. The
// snapshot version makes stale hits structurally impossible; the
// ScoreSignature (already canonicalized — parameters the transform does not
// read are zeroed) covers stages 1+2; matcher/kind/topk cover the decision;
// the row range picks the answer rows.
std::string MakeResultKey(const std::string& pair, uint64_t version,
                          const ServeRequest& request) {
  std::string key = ResultCache::PairPrefix(pair);
  AppendU64(&key, version);
  const ScoreSignature sig = ScoreSignature::Of(request.options);
  AppendU64(&key, static_cast<uint64_t>(sig.metric));
  AppendU64(&key, static_cast<uint64_t>(sig.transform));
  AppendU64(&key, sig.csls_k);
  AppendU64(&key, sig.rinf_k);
  AppendU64(&key, sig.sinkhorn_iterations);
  uint64_t temperature_bits = 0;
  static_assert(sizeof(temperature_bits) == sizeof(sig.sinkhorn_temperature));
  std::memcpy(&temperature_bits, &sig.sinkhorn_temperature,
              sizeof(temperature_bits));
  AppendU64(&key, temperature_bits);
  AppendU64(&key, sig.rinf_pb_candidates);
  AppendU64(&key, static_cast<uint64_t>(
                      reinterpret_cast<uintptr_t>(sig.candidate_index)));
  AppendU64(&key, sig.num_candidates);
  AppendU64(&key, sig.index_nprobe);
  AppendU64(&key, sig.index_ef);
  AppendU64(&key, static_cast<uint64_t>(request.kind));
  AppendU64(&key, static_cast<uint64_t>(request.options.matcher));
  AppendU64(&key, request.kind == ServeQueryKind::kTopK ? request.topk : 0);
  // want_scores widens the stored payload, so it gets its own entry.
  AppendU64(&key, request.kind == ServeQueryKind::kTopK && request.want_scores
                      ? 1
                      : 0);
  AppendU64(&key, request.row_begin);
  AppendU64(&key, request.row_end);
  return key;
}

// Admission of a candidate-index query: the two refusals only serving
// needs, then the engine's own sparse-query rules, so a query the engine
// would refuse at execution is refused before it queues.
Status AdmitSparseQuery(const ServeRequest& request, size_t num_targets) {
  if (request.kind == ServeQueryKind::kTopK) {
    return Status::InvalidArgument(
        "MatchServer: top-k serving needs the dense score path; drop the "
        "candidate index for top-k queries");
  }
  if (!MatcherSupportsSparse(request.options.matcher)) {
    return Status::InvalidArgument(
        "MatchServer: the requested matcher cannot decide over candidate "
        "lists; drop the candidate index for this query");
  }
  const Status rules =
      MatchEngine::ValidateSparseQuery(request.options, num_targets);
  if (rules.ok()) return rules;
  return Status(rules.code(), "MatchServer: " + rules.message());
}

bool HasRowRange(const ServeRequest& request) {
  return request.row_begin > 0 || request.row_end > 0;
}

// The source rows `request` asks for, out of `n`.
std::pair<size_t, size_t> AnswerRows(const ServeRequest& request, size_t n) {
  if (!HasRowRange(request)) return {0, n};
  return {request.row_begin, request.row_end};
}

// One scores pass answers both requests: the same pair, score signature and
// row range, and — for a routed range — the same verdict on whether the
// engine scores only that range.
bool SharesBatch(const ServeRequest& a, const ServeRequest& b) {
  return a.pair == b.pair &&
         ScoreSignature::Of(a.options) == ScoreSignature::Of(b.options) &&
         a.row_begin == b.row_begin && a.row_end == b.row_end &&
         (!HasRowRange(a) || MatchEngine::IsRowLocal(a.options) ==
                                 MatchEngine::IsRowLocal(b.options));
}

}  // namespace

MatchServer::MatchServer(const MatchServerConfig& config)
    : config_(config), num_workers_(ResolveServeWorkers(config.serve_workers)),
      stats_(config.max_batch), cache_(config.result_cache_bytes) {}

Result<std::unique_ptr<MatchServer>> MatchServer::Create(
    const MatchServerConfig& config) {
  if (config.queue_capacity == 0) {
    return Status::InvalidArgument("MatchServer: queue_capacity must be >= 1");
  }
  if (config.max_batch == 0) {
    return Status::InvalidArgument("MatchServer: max_batch must be >= 1");
  }
  if (config.shed_watermark > config.queue_capacity) {
    return Status::InvalidArgument(
        "MatchServer: shed_watermark above queue_capacity would never fire");
  }
  // Submit refuses a full queue before it reaches the degrade branch, so a
  // watermark at capacity would never degrade (shed at capacity still sheds).
  if (config.degrade_watermark >= config.queue_capacity) {
    return Status::InvalidArgument(
        "MatchServer: degrade_watermark at or above queue_capacity would "
        "never fire");
  }
  if (config.degrade_watermark > 0 && config.degrade_num_candidates == 0) {
    return Status::InvalidArgument(
        "MatchServer: degrade_num_candidates must be >= 1 when degrading");
  }
  return std::unique_ptr<MatchServer>(new MatchServer(config));
}

MatchServer::~MatchServer() { Shutdown(); }

Status MatchServer::LoadPair(const std::string& name, Matrix source,
                             Matrix target, const MatchOptions& base) {
  MatchOptions options = base;
  options.workspace_budget_bytes = config_.workspace_budget_bytes;
  Result<std::shared_ptr<PairSnapshot>> snapshot =
      PairSnapshot::Build(std::move(source), std::move(target));
  if (!snapshot.ok()) {
    return Status(snapshot.status().code(),
                  "MatchServer: " + snapshot.status().message());
  }
  // Warm the session metric's similarity cache before publishing, so the
  // first query (on any worker) runs allocation-light.
  (*snapshot)->EnsureCache(options.metric);
  std::lock_guard<std::mutex> lock(pairs_mu_);
  if (base_options_.count(name) > 0) {
    return Status::AlreadyExists("MatchServer: pair already loaded: " + name);
  }
  EM_ASSIGN_OR_RETURN(const uint64_t version,
                      registry_.Publish(name, std::move(snapshot).value()));
  (void)version;
  base_options_[name] = options;
  return Status::OK();
}

Status MatchServer::AttachIndex(const std::string& name,
                                std::unique_ptr<CandidateIndex> index) {
  if (index == nullptr) {
    return Status::InvalidArgument("MatchServer: AttachIndex: null index");
  }
  std::lock_guard<std::mutex> lock(pairs_mu_);
  std::shared_ptr<const PairSnapshot> current = registry_.Acquire(name);
  if (current == nullptr) {
    return Status::NotFound("MatchServer: unknown pair: " + name);
  }
  if (current->index() != nullptr) {
    return Status::AlreadyExists("MatchServer: pair already has an index: " +
                                 name);
  }
  if (index->num_targets() != current->target().rows()) {
    return Status::InvalidArgument(
        "MatchServer: candidate index was built over a different target set "
        "than pair '" + name + "'");
  }
  // Sibling snapshot: shares the embeddings and every built cache, so the
  // publish is cheap and nothing warm is lost.
  std::shared_ptr<PairSnapshot> with_index = current->WithIndex(
      std::shared_ptr<const CandidateIndex>(std::move(index)));
  EM_ASSIGN_OR_RETURN(const uint64_t version,
                      registry_.Publish(name, std::move(with_index)));
  (void)version;
  return Status::OK();
}

Result<uint64_t> MatchServer::SwapPair(const std::string& name, Matrix source,
                                       Matrix target,
                                       std::unique_ptr<CandidateIndex> index,
                                       uint64_t min_version) {
  std::lock_guard<std::mutex> lock(pairs_mu_);
  auto base_it = base_options_.find(name);
  if (base_it == base_options_.end()) {
    return Status::NotFound("MatchServer: unknown pair: " + name +
                            " (SwapPair replaces; LoadPair introduces)");
  }
  Result<std::shared_ptr<PairSnapshot>> built =
      PairSnapshot::Build(std::move(source), std::move(target));
  if (!built.ok()) {
    return Status(built.status().code(),
                  "MatchServer: " + built.status().message());
  }
  std::shared_ptr<PairSnapshot> snapshot = std::move(built).value();
  if (index != nullptr) {
    if (index->num_targets() != snapshot->target().rows()) {
      return Status::InvalidArgument(
          "MatchServer: candidate index was built over a different target "
          "set than the new embeddings of pair '" + name + "'");
    }
    snapshot = snapshot->WithIndex(
        std::shared_ptr<const CandidateIndex>(std::move(index)));
  }
  // Build-then-flip: warm the new version's similarity cache *before*
  // publishing so the swap never serves a cold cache build from the hot
  // path.
  snapshot->EnsureCache(base_it->second.metric);
  EM_ASSIGN_OR_RETURN(const uint64_t version,
                      registry_.Publish(name, std::move(snapshot),
                                        min_version));
  stats_.RecordSwap();
  // Correctness does not need this (the version is in every cache key);
  // reclaiming the dead entries' bytes eagerly does.
  cache_.InvalidatePair(name);
  return version;
}

std::shared_ptr<const PairSnapshot> MatchServer::CurrentSnapshot(
    const std::string& name) const {
  return registry_.Acquire(name);
}

Status MatchServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!workers_.empty()) {
    return Status::FailedPrecondition("MatchServer: already started");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return Status::FailedPrecondition("MatchServer: already shut down");
    }
  }
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back(&MatchServer::WorkerLoop, this);
  }
  return Status::OK();
}

std::future<ServeResponse> MatchServer::Submit(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  // Top-k runs no decision stage; the greedy matcher stands in for it, so a
  // top-k range is row-local wherever its transform is.
  if (request.kind == ServeQueryKind::kTopK) {
    request.options.matcher = MatcherKind::kGreedy;
  }
  // Admission control: answer doomed or unservable requests now, on the
  // submitting thread, instead of letting them queue behind real work. The
  // acquired snapshot is only consulted — execution pins its own later.
  Status verdict = Status::OK();
  const std::shared_ptr<const PairSnapshot> snapshot =
      registry_.Acquire(request.pair);
  if (snapshot == nullptr) {
    verdict = Status::NotFound("MatchServer: unknown pair: " + request.pair);
  } else if (request.kind == ServeQueryKind::kMatch &&
             request.options.matcher == MatcherKind::kRl) {
    verdict = Status::InvalidArgument(
        "MatchServer: the RL matcher needs KG context and cannot be served");
  } else if (request.kind == ServeQueryKind::kTopK && request.topk == 0) {
    verdict = Status::InvalidArgument("MatchServer: topk must be >= 1");
  } else if (request.kind == ServeQueryKind::kMatch && request.want_scores) {
    verdict = Status::InvalidArgument(
        "MatchServer: want_scores applies to top-k queries only");
  } else if (HasRowRange(request) &&
             (request.row_begin >= request.row_end ||
              request.row_end > snapshot->source().rows())) {
    verdict = Status::OutOfRange(
        "MatchServer: row range [" + std::to_string(request.row_begin) + ", " +
        std::to_string(request.row_end) + ") is empty or exceeds the " +
        std::to_string(snapshot->source().rows()) + " source rows of pair '" +
        request.pair + "'");
  } else if (UsesCandidateIndex(request.options)) {
    verdict = AdmitSparseQuery(request, snapshot->target().rows());
  }
  if (verdict.ok() && config_.workspace_budget_bytes > 0) {
    const size_t n = snapshot->source().rows();
    const auto [begin, end] = AnswerRows(request, n);
    const size_t bytes = MatchEngine::DeclaredWorkspaceBytesFor(
        n, snapshot->target().rows(), request.options, begin, end);
    if (bytes > config_.workspace_budget_bytes) {
      verdict = Status::ResourceExhausted(
          "MatchServer: declared workspace of " + std::to_string(bytes) +
          " B exceeds the arena budget of " +
          std::to_string(config_.workspace_budget_bytes) + " B");
    }
  }

  // Degrade-to-sparse eligibility: a dense full-match whose stages all have
  // sparse variants, against a pair whose snapshot carries an index. Only
  // the *flag* is set here — the worker rewrites the options from the
  // snapshot it pins for the batch, so the index pointer in the rewritten
  // options can never outlive its snapshot across a swap.
  const bool degradable =
      verdict.ok() && config_.degrade_watermark > 0 &&
      snapshot->index() != nullptr &&
      request.kind == ServeQueryKind::kMatch &&
      !UsesCandidateIndex(request.options) &&
      TransformSupportsSparse(request.options.transform) &&
      MatcherSupportsSparse(request.options.matcher);

  size_t depth_after = 0;
  bool shed = false;
  uint64_t retry_after_micros = 0;
  bool degraded = false;
  if (verdict.ok()) {
    Pending pending;
    pending.request = std::move(request);
    pending.enqueued = Clock::now();
    pending.deadline =
        pending.request.timeout_micros > 0
            ? pending.enqueued +
                  std::chrono::microseconds(pending.request.timeout_micros)
            : Clock::time_point::max();
    std::lock_guard<std::mutex> lock(queue_mu_);
    const size_t depth = queue_.size();
    if (stopping_) {
      verdict = Status::FailedPrecondition("MatchServer: shut down");
    } else if (depth >= config_.queue_capacity) {
      // kUnavailable, not kResourceExhausted: the queue being full is a
      // transient load condition the client may retry, unlike a request
      // whose own footprint exceeds the arena budget.
      shed = true;
      retry_after_micros = RetryAfterHintMicros(depth);
      verdict = Status::Unavailable(
          "MatchServer: request queue full (" +
          std::to_string(config_.queue_capacity) + ")");
    } else {
      if (degradable && depth >= config_.degrade_watermark) {
        pending.degraded = true;
        degraded = true;
      } else if (config_.shed_watermark > 0 &&
                 depth >= config_.shed_watermark) {
        shed = true;
        retry_after_micros = RetryAfterHintMicros(depth);
        verdict = Status::Unavailable(
            "MatchServer: shedding at queue depth " + std::to_string(depth) +
            " (watermark " + std::to_string(config_.shed_watermark) + ")");
      }
      if (verdict.ok()) {
        pending.promise = std::move(promise);
        queue_.push_back(std::move(pending));
        depth_after = queue_.size();
      }
    }
  }

  if (!verdict.ok()) {
    stats_.RecordRejected();
    if (shed) stats_.RecordShed();
    ServeResponse response;
    response.status = std::move(verdict);
    response.retry_after_micros = retry_after_micros;
    promise.set_value(std::move(response));
    return future;
  }
  if (degraded) stats_.RecordDegraded();
  stats_.RecordAdmitted(depth_after);
  queue_cv_.notify_one();
  return future;
}

uint64_t MatchServer::RetryAfterHintMicros(size_t queue_depth) const {
  // Time-to-drain estimate: the queue plus the shed request, one batch each
  // at the mean measured execution time (batching only shortens it), spread
  // over the workers; one flush window each until a batch has run. Floor of
  // 1ms so a hint is never "retry immediately" while we are shedding.
  const uint64_t batches = exec_batches_.load();
  const uint64_t flush = config_.flush_micros > 0 ? config_.flush_micros : 200;
  const uint64_t per_request =
      batches > 0 ? exec_micros_total_.load() / batches / num_workers_ : flush;
  return std::max<uint64_t>(1000, per_request * (queue_depth + 1));
}

ServeResponse MatchServer::Query(ServeRequest request) {
  return Submit(std::move(request)).get();
}

ServerStatsSnapshot MatchServer::Stats() const {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  ServerStatsSnapshot snap =
      stats_.Snapshot(depth, cache_.evictions(), cache_.bytes());
  for (const std::string& name : registry_.Names()) {
    const std::shared_ptr<const PairSnapshot> snapshot =
        registry_.Acquire(name);
    if (snapshot != nullptr) {
      snap.pair_versions.emplace_back(name, snapshot->version());
    }
  }
  return snap;
}

std::string MatchServer::HealthJson() const {
  const ServerStatsSnapshot snapshot = Stats();
  JsonValue health = snapshot.ToJson();
  health["queue_capacity"] = config_.queue_capacity;
  health["shed_watermark"] = config_.shed_watermark;
  health["degrade_watermark"] = config_.degrade_watermark;
  health["serve_workers"] = num_workers_;
  health["shed_rate"] =
      snapshot.submitted > 0 ? static_cast<double>(snapshot.shed) /
                                   static_cast<double>(snapshot.submitted)
                             : 0.0;
  health["fault_plan"] = FaultInjector::Global().Fingerprint();
  return health.Dump();
}

void MatchServer::Shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Workers exit only once the queue is empty, so every request a started
  // server admitted is executed before the joins return.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Only reachable with a non-empty queue when no worker ever started.
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    ServeResponse response;
    response.status = Status::FailedPrecondition(
        "MatchServer: shut down before the request executed");
    Respond(&pending, std::move(response));
  }
}

std::vector<MatchServer::Pending> MatchServer::NextBatch() {
  std::lock_guard<std::mutex> collecting(collect_mu_);
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return {};  // stopping, fully drained

  std::vector<Pending> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const Clock::time_point flush_deadline =
      batch.front().enqueued + std::chrono::microseconds(config_.flush_micros);
  // The window is the head and the next max_batch - 1 queued requests.
  // Requests it skips stay at the queue's front, in arrival order; only
  // Submit touches the queue meanwhile, and it only appends.
  size_t window = 1;
  size_t skipped = 0;
  while (window < config_.max_batch) {
    if (skipped < queue_.size()) {
      ++window;
      auto it = queue_.begin() + static_cast<std::ptrdiff_t>(skipped);
      // Re-read every time: a push_back may have moved the head.
      const Pending& head = batch.front();
      if (it->degraded == head.degraded &&
          SharesBatch(it->request, head.request)) {
        batch.push_back(std::move(*it));
        queue_.erase(it);
      } else {
        ++skipped;
      }
      continue;
    }
    // Keep the batch open until the flush window closes or it fills.
    if (stopping_ || !queue_cv_.wait_until(lock, flush_deadline, [&] {
          return stopping_ || queue_.size() > skipped;
        })) {
      break;
    }
  }
  return batch;
}

void MatchServer::WorkerLoop() {
  // Each worker keeps one warm engine per pair over the current snapshot;
  // the arena is recycled across snapshot versions (TakeWorkspace), so a
  // swap does not re-grow slabs.
  std::map<std::string, WorkerEngine> engines;
  for (std::vector<Pending> batch = NextBatch(); !batch.empty();
       batch = NextBatch()) {
    const Clock::time_point start = Clock::now();
    ExecuteGroup(std::move(batch), &engines);
    exec_micros_total_ +=
        static_cast<uint64_t>(MicrosBetween(start, Clock::now()));
    ++exec_batches_;
  }
}

void MatchServer::ExecuteGroup(std::vector<Pending> group,
                               std::map<std::string, WorkerEngine>* engines) {
  // Pin one snapshot (and the base options) for the whole batch: a
  // concurrent SwapPair cannot split it across versions, and every raw
  // pointer into the snapshot (the degrade rewrite's candidate_index, cache
  // rows) stays valid until this returns, even if a swap displaces it
  // mid-batch.
  const std::string pair = group.front().request.pair;
  const std::shared_ptr<const PairSnapshot> snapshot =
      registry_.Acquire(pair);
  MatchOptions base_options;
  {
    std::lock_guard<std::mutex> lock(pairs_mu_);
    auto it = base_options_.find(pair);
    if (it != base_options_.end()) base_options = it->second;
  }
  const Clock::time_point now = Clock::now();
  std::vector<Pending> live;
  live.reserve(group.size());
  for (Pending& pending : group) {
    ServeResponse response;
    ResultCache::Entry entry;
    if (snapshot == nullptr) {
      // Admitted against a pair that no longer resolves — cannot happen
      // through the public API (pairs are never removed), but fail closed.
      response.status =
          Status::Internal("MatchServer: pair vanished after admission");
    } else if (pending.deadline <= now) {
      // Expired while queued: answered without paying for kernel work.
      response.status = Status::DeadlineExceeded(
          "MatchServer: request expired after " +
          std::to_string(static_cast<uint64_t>(
              MicrosBetween(pending.enqueued, now))) +
          " us in queue");
    } else if (!pending.degraded && cache_.enabled() &&
               cache_.Lookup(
                   MakeResultKey(pair, snapshot->version(), pending.request),
                   &entry)) {
      stats_.RecordCacheHit();
      response.cached = true;
      response.snapshot_version = snapshot->version();
      if (pending.request.kind == ServeQueryKind::kMatch) {
        response.assignment = std::move(entry.assignment);
      } else {
        response.topk = std::move(entry.topk);
        response.topk_scores = std::move(entry.topk_scores);
      }
    } else {
      if (!pending.degraded) {
        if (cache_.enabled()) stats_.RecordCacheMiss();
      } else if (const CandidateIndex* index = snapshot->index();
                 index != nullptr) {
        // Rewrite from the pinned snapshot: the index pointer lives exactly
        // as long as the snapshot the batch holds.
        pending.request.options.candidate_index = index;
        pending.request.options.num_candidates =
            config_.degrade_num_candidates;
        pending.request.options.index_nprobe =
            std::max<size_t>(1, config_.degrade_nprobe);
        pending.request.options.index_ef =
            std::max<size_t>(1, config_.degrade_ef);
      } else {
        // A swap dropped the index since admission: serve dense, honestly
        // undegraded.
        pending.degraded = false;
      }
      live.push_back(std::move(pending));
      continue;
    }
    Respond(&pending, std::move(response));
  }
  if (live.empty()) return;

  const uint64_t version = snapshot->version();
  WorkerEngine& slot = (*engines)[pair];
  if (slot.engine == nullptr || slot.version != version ||
      slot.engine->snapshot() != snapshot) {
    std::unique_ptr<Workspace> recycled =
        slot.engine != nullptr ? slot.engine->TakeWorkspace() : nullptr;
    slot.engine.reset();
    Result<MatchEngine> rebuilt =
        MatchEngine::Over(snapshot, base_options, std::move(recycled));
    if (!rebuilt.ok()) {
      for (Pending& pending : live) {
        ServeResponse response;
        response.status = rebuilt.status();
        Respond(&pending, std::move(response));
      }
      return;
    }
    slot.engine = std::make_unique<MatchEngine>(std::move(rebuilt).value());
    slot.version = version;
  }
  MatchEngine* engine = slot.engine.get();

  const uint64_t batch_id = stats_.RecordBatch(live.size());
  // The shared scores pass runs under the *latest* live deadline: a
  // short-deadline rider must not abort a batch that other requests can
  // still use. Each decision stage then runs under its own request's
  // deadline (ScoredBatch::Match checks it at entry).
  Clock::time_point group_deadline = Clock::time_point::min();
  for (const Pending& pending : live) {
    group_deadline = std::max(group_deadline, pending.deadline);
  }
  if (group_deadline != Clock::time_point::max()) {
    engine->SetStageDeadline(group_deadline);
  }
  const ServeRequest& first = live.front().request;
  const auto [row_begin, row_end] =
      AnswerRows(first, snapshot->source().rows());
  Result<MatchEngine::ScoredBatch> batch =
      engine->BeginBatch(first.options, row_begin, row_end);
  for (Pending& pending : live) {
    ServeResponse response;
    response.batch_size = live.size();
    response.degraded = pending.degraded;
    response.snapshot_version = version;
    response.batch_id = batch_id;
    if (pending.deadline != Clock::time_point::max()) {
      engine->SetStageDeadline(pending.deadline);
    } else {
      engine->ClearStageDeadline();
    }
    if (!batch.ok()) {
      response.status = batch.status();
    } else if (pending.deadline <= Clock::now()) {
      // Expired while the shared pass ran (or while batch-mates decided).
      response.status = Status::DeadlineExceeded(
          "MatchServer: deadline expired during the scores pass");
    } else if (pending.request.kind == ServeQueryKind::kMatch) {
      Result<Assignment> assignment = batch->Match(pending.request.options);
      if (assignment.ok()) {
        response.assignment = std::move(assignment).value();
      } else {
        response.status = assignment.status();
      }
    } else {
      response.topk = RowTopKIndices(batch->scores(), pending.request.topk);
      if (pending.request.want_scores) {
        // Gather the selected entries' transformed scores, bit-exact from
        // the same matrix the indices came from.
        const Matrix& scores = batch->scores();
        const size_t rows = scores.rows();
        const size_t k_eff = rows > 0 ? response.topk.size() / rows : 0;
        response.topk_scores.reserve(response.topk.size());
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < k_eff; ++j) {
            response.topk_scores.push_back(
                scores.At(r, response.topk[r * k_eff + j]));
          }
        }
      }
    }
    if (cache_.enabled() && response.status.ok() && !pending.degraded) {
      ResultCache::Entry entry;
      if (pending.request.kind == ServeQueryKind::kMatch) {
        entry.assignment = response.assignment;
      } else {
        entry.topk = response.topk;
        entry.topk_scores = response.topk_scores;
      }
      cache_.Insert(MakeResultKey(pair, version, pending.request),
                    std::move(entry));
    }
    Respond(&pending, std::move(response));
  }
  engine->ClearStageDeadline();
}

void MatchServer::Respond(Pending* pending, ServeResponse response) {
  const double latency_micros =
      MicrosBetween(pending->enqueued, Clock::now());
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    stats_.RecordTimedOut();
  } else {
    stats_.RecordDone(response.status.ok(), latency_micros);
  }
  pending->promise.set_value(std::move(response));
}

}  // namespace entmatcher

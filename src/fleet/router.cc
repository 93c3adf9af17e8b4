#include "fleet/router.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"

namespace entmatcher {

namespace {

const char* ChannelStateName(int state) {
  switch (state) {
    case 0: return "unknown";
    case 1: return "up";
    case 2: return "down";
    case 3: return "incompatible";
  }
  return "?";
}

const char* BreakerStateName(int state) {
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half_open";
  }
  return "?";
}

}  // namespace

JsonValue RouterStatsSnapshot::ToJson() const {
  return JsonValue::Object{
      {"queries", queries}, {"ok", ok}, {"failed", failed},
      {"degraded", degraded}, {"subqueries", subqueries}, {"hedges", hedges},
      {"failovers", failovers}, {"version_mismatches", version_mismatches},
      {"swap_fanouts", swap_fanouts}, {"swap_failures", swap_failures},
      {"breaker_opens", breaker_opens},
      {"breaker_half_opens", breaker_half_opens},
      {"breaker_closes", breaker_closes}};
}

Result<std::unique_ptr<Router>> Router::Create(ShardPlan plan,
                                               RouterConfig config) {
  EM_RETURN_NOT_OK(plan.Validate());
  return std::unique_ptr<Router>(new Router(std::move(plan), config));
}

Router::Router(ShardPlan plan, RouterConfig config)
    : plan_(std::move(plan)), config_(config) {
  channels_.reserve(plan_.shards.size());
  for (const ShardSpec& shard : plan_.shards) {
    auto channel = std::make_unique<Channel>();
    channel->id = shard.id;
    channel->socket_path = shard.socket_path;
    channels_.push_back(std::move(channel));
  }
  for (const std::unique_ptr<Channel>& channel : channels_) {
    channel->thread = std::thread([this, c = channel.get()] { RunChannel(c); });
  }
  for (const PairSpec& pair : plan_.pairs) {
    WireRequest& served = served_[pair.name];
    served.verb = WireRequest::Verb::kSwap;
    served.pair = pair.name;
    served.source_path = pair.source_path;
    served.target_path = pair.target_path;
    served.index_path = pair.index_path;
  }
}

Router::~Router() {
  for (const std::unique_ptr<Channel>& channel : channels_) {
    std::lock_guard<std::mutex> lock(channel->queue_mu);
    channel->closing = true;
    channel->queue_cv.notify_one();
  }
  for (const std::unique_ptr<Channel>& channel : channels_) {
    channel->thread.join();
  }
}

Router::Channel* Router::FindChannel(int shard_id) {
  for (const std::unique_ptr<Channel>& channel : channels_) {
    if (channel->id == shard_id) return channel.get();
  }
  return nullptr;
}

void Router::NoteChannelFailure(Channel* channel) {
  if (config_.breaker_failures == 0) return;  // breaker disabled
  ++channel->consecutive_failures;
  const BreakerState state = channel->breaker.load();
  const bool trip =
      state == BreakerState::kHalfOpen ||
      (state == BreakerState::kClosed &&
       channel->consecutive_failures >= config_.breaker_failures);
  if (trip) {
    channel->breaker.store(BreakerState::kOpen);
    channel->opened_at = std::chrono::steady_clock::now();
    channel->opens.fetch_add(1);
  }
}

void Router::NoteChannelSuccess(Channel* channel) {
  channel->consecutive_failures = 0;
  if (channel->breaker.load() != BreakerState::kClosed) {
    channel->breaker.store(BreakerState::kClosed);
    channel->closes.fetch_add(1);
  }
}

Result<WireResponse> Router::Attempt(Channel* channel,
                                     const WireRequest& request) {
  std::lock_guard<std::mutex> lock(channel->mu);
  if (channel->state.load() == ChannelState::kIncompatible) {
    return Status::FailedPrecondition("shard " + std::to_string(channel->id) +
                                      ": " + channel->last_error);
  }
  if (!channel->admitted.load()) {
    return Status::Unavailable(
        "shard " + std::to_string(channel->id) +
        " is quarantined awaiting version-converged re-join");
  }
  if (channel->breaker.load() == BreakerState::kOpen) {
    const auto cooled_at =
        channel->opened_at +
        std::chrono::microseconds(config_.breaker_cooldown_micros);
    if (std::chrono::steady_clock::now() < cooled_at) {
      // Fail fast without dialing — and without advancing the breaker: a
      // rejected attempt is not evidence about the shard.
      return Status::Unavailable("shard " + std::to_string(channel->id) +
                                 ": circuit breaker open; cooling down");
    }
    channel->breaker.store(BreakerState::kHalfOpen);
    channel->half_opens.fetch_add(1);
  }
  if (!channel->client.has_value()) {
    Result<ServeClient> connected = ServeClient::Connect(channel->socket_path);
    if (!connected.ok()) {
      channel->state.store(ChannelState::kDown);
      channel->last_error = connected.status().message();
      NoteChannelFailure(channel);
      return connected.status();
    }
    channel->client.emplace(std::move(connected).value());
    channel->hello_checked = false;
  }
  if (!channel->hello_checked) {
    // Version handshake before the first real frame: a peer speaking a
    // different protocol must be refused with a clear error, not allowed to
    // produce undefined framing behavior mid-query.
    WireRequest hello;
    hello.verb = WireRequest::Verb::kHello;
    Result<WireResponse> greeted =
        channel->client->CallWithRetry(hello, config_.retry);
    if (!greeted.ok() || !greeted->status.ok()) {
      const Status status = greeted.ok() ? greeted->status : greeted.status();
      channel->client.reset();
      channel->state.store(ChannelState::kDown);
      channel->last_error = "hello: " + status.message();
      NoteChannelFailure(channel);
      return Status(status.code(), channel->last_error);
    }
    const Status compatible = CheckHello(
        greeted->text, "shard " + std::to_string(channel->id));
    if (!compatible.ok()) {
      // A protocol mismatch is a config error, not transport evidence —
      // the channel is refused permanently, the breaker stays untouched.
      channel->client.reset();
      channel->state.store(ChannelState::kIncompatible);
      channel->last_error = compatible.message();
      return compatible;
    }
    channel->hello_checked = true;
  }
  Result<WireResponse> response =
      channel->client->CallWithRetry(request, config_.retry);
  if (!response.ok()) {
    // CallWithRetry exhausted its budget against a dead transport; drop the
    // connection so the next attempt redials, and let the caller fail over.
    channel->client.reset();
    channel->hello_checked = false;
    channel->state.store(ChannelState::kDown);
    channel->last_error = response.status().message();
    NoteChannelFailure(channel);
  } else {
    // The transport works — a server-side error (shed, bad argument) is
    // not breaker evidence.
    channel->state.store(ChannelState::kUp);
    NoteChannelSuccess(channel);
  }
  return response;
}

Status Router::Quarantine(int shard_id) {
  Channel* channel = FindChannel(shard_id);
  if (channel == nullptr) {
    return Status::NotFound("router: no channel for shard " +
                            std::to_string(shard_id));
  }
  std::lock_guard<std::mutex> lock(channel->mu);
  channel->admitted.store(false);
  channel->client.reset();
  channel->hello_checked = false;
  channel->state.store(ChannelState::kDown);
  channel->last_error = "quarantined by supervisor";
  return Status::OK();
}

Status Router::Readmit(int shard_id) {
  Channel* channel = FindChannel(shard_id);
  if (channel == nullptr) {
    return Status::NotFound("router: no channel for shard " +
                            std::to_string(shard_id));
  }
  std::lock_guard<std::mutex> lock(channel->mu);
  channel->consecutive_failures = 0;
  if (channel->breaker.load() != BreakerState::kClosed) {
    channel->breaker.store(BreakerState::kClosed);
    channel->closes.fetch_add(1);
  }
  channel->client.reset();
  channel->hello_checked = false;
  channel->state.store(ChannelState::kUnknown);
  channel->last_error.clear();
  channel->admitted.store(true);
  return Status::OK();
}

Result<WireResponse> Router::AttemptOnce(Channel* channel,
                                         const WireRequest& request) {
  std::lock_guard<std::mutex> lock(channel->mu);
  // A cached connection outlives a restart of the shard's socket server,
  // and then writing the request fails (EPIPE). A failed write means the
  // shard never read the whole frame, so that case alone redials and
  // resends, once. A failure after the write stands: the shard may have
  // acted on the request.
  bool may_redial = channel->client.has_value();
  for (;;) {
    if (!channel->client.has_value()) {
      Result<ServeClient> connected =
          ServeClient::Connect(channel->socket_path);
      if (!connected.ok()) {
        channel->state.store(ChannelState::kDown);
        channel->last_error = connected.status().message();
        return connected.status();
      }
      channel->client.emplace(std::move(connected).value());
      channel->hello_checked = false;
    }
    bool unsent = false;
    Result<WireResponse> response = channel->client->Call(request, &unsent);
    if (!response.ok()) {
      channel->client.reset();
      channel->hello_checked = false;
      if (unsent && may_redial) {
        may_redial = false;
        continue;
      }
      channel->state.store(ChannelState::kDown);
      channel->last_error = response.status().message();
    } else if (channel->state.load() != ChannelState::kIncompatible) {
      // The shard replied, so the channel is up. A protocol refusal stands:
      // only Readmit clears it.
      channel->state.store(ChannelState::kUp);
    }
    return response;
  }
}

std::vector<int> Router::FailoverOrder(const RangeSpec& range) {
  // The plan's owner order (primary first), with channels currently known
  // Down demoted to the back — they still get a chance (maybe the shard
  // came back), but never before a live replica — and open-breaker
  // channels behind even those (they fail fast until the cooldown lets a
  // probe through). Quarantined channels are skipped entirely: a restarted
  // shard that has not converged to the fleet's snapshot version must not
  // contribute parts.
  const auto channel_pass = [this](int id) -> int {
    Channel* channel = FindChannel(id);
    if (channel == nullptr || !channel->admitted.load()) return -1;
    if (channel->breaker.load() != BreakerState::kClosed) return 2;
    return channel->state.load() == ChannelState::kDown ? 1 : 0;
  };
  std::vector<int> order;
  order.reserve(range.shards.size());
  for (int pass = 0; pass <= 2; ++pass) {
    for (int id : range.shards) {
      if (channel_pass(id) == pass) order.push_back(id);
    }
  }
  return order;
}

void Router::Launch(const std::shared_ptr<Gather>& gather, size_t range) {
  Gather::Range& slot = gather->ranges[range];
  Channel* channel = FindChannel(slot.order[slot.next_owner++]);
  ++slot.launched;
  slot.window_start = std::chrono::steady_clock::now();
  subqueries_.fetch_add(1);
  std::lock_guard<std::mutex> lock(channel->queue_mu);
  channel->queue.push_back(QueuedAttempt{gather, range});
  channel->queue_cv.notify_one();
}

void Router::RunChannel(Channel* channel) {
  std::unique_lock<std::mutex> lock(channel->queue_mu);
  for (;;) {
    channel->queue_cv.wait(
        lock, [&] { return channel->closing || !channel->queue.empty(); });
    if (channel->queue.empty()) return;  // closing, and nothing left to run
    QueuedAttempt next = std::move(channel->queue.front());
    channel->queue.pop_front();
    lock.unlock();
    // The sub-query is written before the launch and never again, so it is
    // read here without the gather lock.
    Gather& gather = *next.gather;
    const WireRequest& subrequest = gather.ranges[next.range].subrequest;
    Result<WireResponse> response = Attempt(channel, subrequest);
    {
      std::lock_guard<std::mutex> gather_lock(gather.mu);
      Gather::Range& slot = gather.ranges[next.range];
      ++slot.finished;
      if (response.ok() && response->status.ok()) {
        if (!slot.winner.has_value()) {
          RangePart part;
          part.row_begin = subrequest.row_begin;
          part.row_end = subrequest.row_end;
          part.version = response->version;
          part.values = std::move(response->values);
          part.scores = std::move(response->scores);
          slot.winner = std::move(part);
        }
      } else {
        slot.last_failure =
            response.ok() ? response->status : response.status();
        slot.window_start = std::chrono::steady_clock::now();
      }
      gather.cv.notify_all();
    }
    lock.lock();
  }
}

Result<WireResponse> Router::Query(const WireRequest& request) {
  queries_.fetch_add(1);
  if (request.route) {
    failed_.fetch_add(1);
    return Status::InvalidArgument(
        "router: route is a shard-side verb; send match/topk");
  }
  // An unnamed query on a single-pair plan means that pair (mirrors the
  // solo server's "default"); multi-pair plans require pair=NAME.
  std::string pair_name = request.pair;
  if (pair_name.empty()) {
    pair_name = plan_.pairs.size() == 1 ? plan_.pairs[0].name : "default";
  }
  const PairSpec* pair = plan_.FindPair(pair_name);
  if (pair == nullptr) {
    failed_.fetch_add(1);
    return Status::NotFound("router: pair '" + pair_name +
                            "' is not in the shard plan");
  }

  // Scatter every range, then gather on this thread: a range whose
  // launched attempts all failed fails over to its next owner; with
  // hedging on, a range with no winner hedge_micros after its latest
  // launch or failure races its next owner too. A merge needs every range,
  // so the loop runs until each has a winner or has run out of owners.
  auto gather = std::make_shared<Gather>();
  gather->ranges.resize(pair->ranges.size());
  for (size_t i = 0; i < pair->ranges.size(); ++i) {
    const RangeSpec& range = pair->ranges[i];
    Gather::Range& slot = gather->ranges[i];
    slot.subrequest = request;
    slot.subrequest.pair = pair_name;
    slot.subrequest.route = true;
    slot.subrequest.row_begin = range.begin;
    slot.subrequest.row_end = range.end;
    slot.order = FailoverOrder(range);
    // Every owner quarantined (or missing from the channel set): the
    // "range has no live owner" condition PartialPolicy decides on.
    slot.last_failure = Status::Unavailable(
        "router: range " + std::to_string(range.begin) + ":" +
        std::to_string(range.end) + " has no admitted owner");
  }
  const auto hedge_after = std::chrono::microseconds(config_.hedge_micros);
  std::unique_lock<std::mutex> lock(gather->mu);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = std::chrono::steady_clock::time_point::max();
    bool pending = false;
    for (size_t i = 0; i < gather->ranges.size(); ++i) {
      Gather::Range& slot = gather->ranges[i];
      if (slot.winner.has_value()) continue;
      const bool owners_left = slot.next_owner < slot.order.size();
      if (slot.finished == slot.launched) {
        if (!owners_left) continue;  // every owner tried, every one failed
        if (slot.launched > 0) failovers_.fetch_add(1);
        Launch(gather, i);
      } else if (config_.hedge_micros > 0 && owners_left &&
                 now >= slot.window_start + hedge_after) {
        hedges_.fetch_add(1);
        Launch(gather, i);
      }
      pending = true;
      if (config_.hedge_micros > 0 && slot.next_owner < slot.order.size()) {
        wake = std::min(wake, slot.window_start + hedge_after);
      }
    }
    if (!pending) break;
    if (wake == std::chrono::steady_clock::time_point::max()) {
      gather->cv.wait(lock);
    } else {
      gather->cv.wait_until(lock, wake);
    }
  }
  std::vector<RangePart> parts;
  parts.reserve(gather->ranges.size());
  Status first_failure = Status::OK();
  for (Gather::Range& slot : gather->ranges) {
    if (slot.winner.has_value()) {
      parts.push_back(std::move(*slot.winner));
    } else if (first_failure.ok()) {
      first_failure = slot.last_failure;
    }
  }
  lock.unlock();
  const bool degrade =
      config_.partial_policy == PartialPolicy::kDegrade && !parts.empty();
  if (!first_failure.ok() && !degrade) {
    failed_.fetch_add(1);
    return first_failure;
  }

  // The no-mixed-merge guarantee: count refusals so chaos tests can assert
  // zero outside swap windows (merge re-checks and produces the error).
  // Degradation never relaxes this — a partial answer still comes from
  // exactly one snapshot version.
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].version != parts[0].version) {
      version_mismatches_.fetch_add(1);
      break;
    }
  }
  WireResponse response;
  if (first_failure.ok()) {
    Result<std::vector<int32_t>> merged =
        request.verb == WireRequest::Verb::kMatch
            ? MergeAssignments(pair->rows, parts)
            : MergeTopK(pair->rows, parts);
    if (!merged.ok()) {
      failed_.fetch_add(1);
      return merged.status();
    }
    response.values = std::move(merged).value();
    ok_.fetch_add(1);
  } else {
    // Degraded gather: answer from the ranges that survived, annotate the
    // covered rows. Never counted as ok, never cacheable downstream.
    Result<PartialMerge> merged =
        request.verb == WireRequest::Verb::kMatch
            ? MergeAssignmentsPartial(pair->rows, parts)
            : MergeTopKPartial(pair->rows, parts);
    if (!merged.ok()) {
      failed_.fetch_add(1);
      return merged.status();
    }
    response.values = std::move(merged->values);
    response.coverage = std::move(merged->coverage);
    degraded_.fetch_add(1);
  }
  response.version = parts.empty() ? 0 : parts[0].version;
  return response;
}

std::vector<int> Router::Owners(const PairSpec& pair) const {
  std::vector<int> owners;
  for (const ShardSpec& shard : plan_.shards) {
    for (const RangeSpec& range : pair.ranges) {
      if (std::find(range.shards.begin(), range.shards.end(), shard.id) !=
          range.shards.end()) {
        owners.push_back(shard.id);
        break;
      }
    }
  }
  return owners;
}

Result<uint64_t> Router::ProbeVersion(Channel* channel,
                                      const std::string& pair) {
  WireRequest health;
  health.verb = WireRequest::Verb::kHealth;
  Result<WireResponse> probed = AttemptOnce(channel, health);
  if (!probed.ok()) return probed.status();
  if (!probed->status.ok()) return probed->status;
  return HealthPairVersion(probed->text, pair);
}

Result<std::string> Router::SwapPinned(Channel* channel,
                                       const WireRequest& pinned) {
  Result<WireResponse> response = AttemptOnce(channel, pinned);
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  EM_ASSIGN_OR_RETURN(const uint64_t version,
                      ParseSwappedVersion(response->text));
  if (version != pinned.swap_min_version) {
    return Status::Internal("published v" + std::to_string(version) +
                            ", not the pinned v" +
                            std::to_string(pinned.swap_min_version));
  }
  return std::move(response->text);
}

Result<std::string> Router::Swap(const WireRequest& request) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  swap_fanouts_.fetch_add(1);
  const PairSpec* pair = plan_.FindPair(request.pair);
  if (pair == nullptr) {
    swap_failures_.fetch_add(1);
    return Status::NotFound("router: pair '" + request.pair +
                            "' is not in the shard plan");
  }
  // Phase 0 — pick ONE target version for the whole fan-out: probe every
  // owner's health for its current version of the pair and pin
  // max(current) + 1 via the swap's version= floor. Shards whose counters
  // skewed (a previous partial fan-out, a direct shard-side swap) all
  // publish the same pinned version, which is what lets a repair swap
  // re-converge a diverged fleet. An unreachable owner fails the swap
  // BEFORE anything mutates — all-or-nothing starts at the probe.
  const std::vector<int> owners = Owners(*pair);
  WireRequest pinned = request;
  for (const int shard_id : owners) {
    const Result<uint64_t> current =
        ProbeVersion(FindChannel(shard_id), request.pair);
    if (!current.ok()) {
      swap_failures_.fetch_add(1);
      return Status::Unavailable(
          "router: swap aborted before any shard mutated — shard " +
          std::to_string(shard_id) +
          " is unreachable: " + current.status().message());
    }
    if (*current > 0) {
      pinned.swap_min_version =
          std::max(pinned.swap_min_version, *current + 1);
    }
  }

  // Phase 1 — sequential fan-out, never retried (a replayed swap
  // double-publishes). Every owner must confirm the pinned version. On
  // divergence the fleet is left mixed — reads stay safe (the merge refuses
  // mixed versions) and the error names exactly which shards need the
  // repair re-swap.
  std::string outcomes;
  size_t failures = 0;
  for (const int shard_id : owners) {
    const Result<std::string> swapped =
        SwapPinned(FindChannel(shard_id), pinned);
    if (!swapped.ok()) ++failures;
    outcomes += (outcomes.empty() ? "shard " : "; shard ") +
                std::to_string(shard_id) + ": " +
                (swapped.ok() ? *swapped : swapped.status().message());
  }
  if (failures > 0) {
    swap_failures_.fetch_add(1);
    return Status::Internal(
        "router: swap fan-out did not converge (" +
        std::to_string(failures) + " failures); reads that span diverged "
        "shards will refuse to merge until a repair swap converges the "
        "fleet. Outcomes: " + outcomes);
  }
  served_[request.pair] = pinned;
  return "swapped " + request.pair + " v" +
         std::to_string(pinned.swap_min_version) + " on " +
         std::to_string(owners.size()) + " shards";
}

Status Router::Converge(int shard_id) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  Channel* newcomer = FindChannel(shard_id);
  if (newcomer == nullptr) {
    return Status::NotFound("router: no channel for shard " +
                            std::to_string(shard_id));
  }
  for (const std::string& pair : plan_.PairsOwnedBy(shard_id)) {
    const Result<uint64_t> mine = ProbeVersion(newcomer, pair);
    if (!mine.ok()) {
      return Status::Unavailable("router: re-joining shard " +
                                 std::to_string(shard_id) +
                                 " stopped answering: " +
                                 mine.status().message());
    }
    // The record's version and files, exactly: a peer left ahead by a
    // partial fan-out serves other files, so raising the newcomer to its
    // version would give one version two contents. Reads that span the
    // two refuse until a repair swap.
    const WireRequest& pinned = served_.at(pair);
    if (pinned.swap_min_version <= *mine) continue;  // a retried re-join
    const Result<std::string> swapped = SwapPinned(newcomer, pinned);
    if (!swapped.ok()) {
      return Status(swapped.status().code(),
                    "router: re-join swap of shard " +
                        std::to_string(shard_id) + " to " + pair +
                        " v" + std::to_string(pinned.swap_min_version) +
                        ": " + swapped.status().message());
    }
  }
  return Status::OK();
}

JsonValue Router::ChannelJson(const Channel& channel) {
  return JsonValue::Object{
      {"id", channel.id},
      {"socket", channel.socket_path},
      {"state", ChannelStateName(static_cast<int>(channel.state.load()))},
      {"admitted", channel.admitted.load()},
      {"breaker",
       JsonValue::Object{
           {"state",
            BreakerStateName(static_cast<int>(channel.breaker.load()))},
           {"opens", channel.opens.load()},
           {"half_opens", channel.half_opens.load()},
           {"closes", channel.closes.load()}}}};
}

std::string Router::FleetHealthJson() {
  WireRequest health;
  health.verb = WireRequest::Verb::kHealth;
  JsonValue::Array shards;
  for (const std::unique_ptr<Channel>& channel : channels_) {
    Result<WireResponse> response = AttemptOnce(channel.get(), health);
    JsonValue shard = ChannelJson(*channel);  // the state this probe left
    Status status = response.ok() ? response->status : response.status();
    if (status.ok()) {
      Result<JsonValue> parsed = JsonValue::Parse(response->text);
      if (parsed.ok()) {
        shard["health"] = std::move(parsed).value();
      } else {
        status = Status::Internal("unparseable health JSON");
      }
    }
    if (!status.ok()) shard["error"] = status.message();
    shards.push_back(std::move(shard));
  }
  JsonValue fleet = JsonValue::Object{{"role", "router"},
                                      {"protocol", kProtocolVersion},
                                      {"router_stats", Stats().ToJson()},
                                      {"shards", std::move(shards)}};
  if (supervisor_status_) fleet["supervisor"] = supervisor_status_();
  return fleet.Dump();
}

std::string Router::ShardsJson() const {
  JsonValue::Array channels;
  for (const std::unique_ptr<Channel>& channel : channels_) {
    channels.push_back(ChannelJson(*channel));
  }
  return JsonValue(JsonValue::Object{{"plan", plan_.ToJson()},
                                     {"channels", std::move(channels)}})
      .Dump();
}

RouterStatsSnapshot Router::Stats() const {
  RouterStatsSnapshot snap;
  snap.ok = ok_.load();
  snap.failed = failed_.load();
  snap.degraded = degraded_.load();
  snap.queries = queries_.load();
  snap.subqueries = subqueries_.load();
  snap.hedges = hedges_.load();
  snap.failovers = failovers_.load();
  snap.version_mismatches = version_mismatches_.load();
  snap.swap_fanouts = swap_fanouts_.load();
  snap.swap_failures = swap_failures_.load();
  for (const std::unique_ptr<Channel>& channel : channels_) {
    snap.breaker_opens += channel->opens.load();
    snap.breaker_half_opens += channel->half_opens.load();
    snap.breaker_closes += channel->closes.load();
  }
  return snap;
}

std::string RouterHandler::Handle(const std::string& payload,
                                  bool* shutdown) {
  Result<WireRequest> parsed = ParseRequest(payload);
  if (!parsed.ok()) return EncodeErrorResponse(parsed.status());
  switch (parsed->verb) {
    case WireRequest::Verb::kHello:
      return EncodeTextResponse(HelloJson("router"));
    case WireRequest::Verb::kStats:
      return EncodeTextResponse(router_->Stats().ToJson().Dump());
    case WireRequest::Verb::kHealth:
      return EncodeTextResponse(router_->FleetHealthJson());
    case WireRequest::Verb::kShards:
      return EncodeTextResponse(router_->ShardsJson());
    case WireRequest::Verb::kShutdown:
      *shutdown = true;
      return EncodeTextResponse("shutting down");
    case WireRequest::Verb::kSwap: {
      Result<std::string> swapped = router_->Swap(*parsed);
      if (!swapped.ok()) return EncodeErrorResponse(swapped.status());
      return EncodeTextResponse(*swapped);
    }
    case WireRequest::Verb::kMatch:
    case WireRequest::Verb::kTopK:
      break;
  }
  Result<WireResponse> response = router_->Query(*parsed);
  if (!response.ok()) return EncodeErrorResponse(response.status());
  if (!response->status.ok()) return EncodeErrorResponse(response->status);
  return EncodeValuesResponse(response->values, response->version, false, 0,
                              0, {}, response->coverage);
}

}  // namespace entmatcher

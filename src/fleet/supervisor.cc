#include "fleet/supervisor.h"

#include <signal.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/fault.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace entmatcher {

namespace {

constexpr uint64_t kDefaultJitterSeed = 17;
constexpr std::chrono::milliseconds kWatchTick{5};

std::chrono::microseconds Micros(uint64_t n) {
  return std::chrono::microseconds(static_cast<int64_t>(n));
}

/// One health probe with no retry — the recovery loop is the retry.
Result<std::string> ProbeHealth(const std::string& socket_path) {
  WireRequest health;
  health.verb = WireRequest::Verb::kHealth;
  return CallOnce(socket_path, health);
}

}  // namespace

Result<RestartPolicy> RestartPolicy::Parse(std::string_view spec) {
  RestartPolicy policy;
  if (spec.empty() || spec == "on") return policy;
  if (spec == "off") {
    policy.enabled = false;
    return policy;
  }
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("restart policy: expected key=value, got '" +
                                     std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "multiplier") {
      const std::string text(value);
      char* end = nullptr;
      policy.multiplier = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || policy.multiplier < 1.0) {
        return Status::InvalidArgument(
            "restart policy: multiplier must be a number >= 1, got '" + text +
            "'");
      }
      continue;
    }
    uint64_t parsed = 0;
    if (!ParseUint64(value, &parsed)) {
      return Status::InvalidArgument("restart policy: bad number '" +
                                     std::string(value) + "' for '" +
                                     std::string(key) + "'");
    }
    if (key == "max_strikes") {
      if (parsed == 0 || parsed > UINT32_MAX) {
        return Status::InvalidArgument(
            "restart policy: max_strikes must be in [1, 4294967295]");
      }
      policy.max_strikes = static_cast<uint32_t>(parsed);
    } else if (key == "backoff_us") {
      policy.initial_backoff_micros = parsed;
    } else if (key == "max_backoff_us") {
      policy.max_backoff_micros = parsed;
    } else if (key == "window_us") {
      policy.strike_window_micros = parsed;
    } else if (key == "boot_budget_us") {
      policy.boot_budget_micros = parsed;
    } else if (key == "seed") {
      policy.jitter_seed = parsed;
    } else {
      return Status::InvalidArgument("restart policy: unknown key '" +
                                     std::string(key) + "'");
    }
  }
  if (policy.max_backoff_micros < policy.initial_backoff_micros) {
    return Status::InvalidArgument(
        "restart policy: max_backoff_us < backoff_us");
  }
  return policy;
}

std::string RestartPolicy::ToString() const {
  if (!enabled) return "off";
  std::string out = "max_strikes=" + std::to_string(max_strikes);
  out += ",backoff_us=" + std::to_string(initial_backoff_micros);
  out += ",max_backoff_us=" + std::to_string(max_backoff_micros);
  // Keep multiplier round-trippable without trailing-zero noise.
  std::string mult = std::to_string(multiplier);
  while (mult.size() > 1 && mult.back() == '0') mult.pop_back();
  if (!mult.empty() && mult.back() == '.') mult.pop_back();
  out += ",multiplier=" + mult;
  out += ",window_us=" + std::to_string(strike_window_micros);
  out += ",boot_budget_us=" + std::to_string(boot_budget_micros);
  out += ",seed=" + std::to_string(jitter_seed);
  return out;
}

FleetSupervisor::FleetSupervisor(ShardManager* manager, Router* router,
                                 ShardPlan plan, RestartPolicy policy)
    : manager_(manager),
      router_(router),
      plan_(std::move(plan)),
      policy_(policy) {
  // Resolve the jitter seed once so StatusJson/ToString report the stream
  // actually used: explicit seed > EM_FAULT_SEED > the library default.
  if (policy_.jitter_seed == 0) {
    const char* env = std::getenv("EM_FAULT_SEED");
    if (env != nullptr) (void)ParseUint64(env, &policy_.jitter_seed);
    if (policy_.jitter_seed == 0) policy_.jitter_seed = kDefaultJitterSeed;
  }
  const Rng base(policy_.jitter_seed);
  tracked_.reserve(plan_.shards.size());
  for (const ShardSpec& shard : plan_.shards) {
    Tracked tracked;
    tracked.shard_id = shard.id;
    tracked.socket_path = shard.socket_path;
    // Fork per shard so restart schedules are independent streams of one
    // seed (labels offset by 1: Fork(0) would collide with a default fork).
    tracked.rng = base.Fork(static_cast<uint64_t>(shard.id) + 1);
    tracked_.push_back(std::move(tracked));
  }
  for (const PairSpec& pair : plan_.pairs) {
    RejoinSource source;
    source.source_path = pair.source_path;
    source.target_path = pair.target_path;
    source.index_path = pair.index_path;
    rejoin_sources_[pair.name] = std::move(source);
  }
}

FleetSupervisor::~FleetSupervisor() { Stop(); }

Status FleetSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!policy_.enabled) {
    return Status::FailedPrecondition(
        "restart policy is off; supervisor not started");
  }
  if (running_) {
    return Status::FailedPrecondition("supervisor already running");
  }
  stop_.store(false);
  running_ = true;
  watcher_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void FleetSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  stop_.store(true);
  cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

void FleetSupervisor::RecordSwap(const std::string& pair,
                                 const std::string& source_path,
                                 const std::string& target_path,
                                 const std::string& index_path) {
  std::lock_guard<std::mutex> lock(mu_);
  RejoinSource& source = rejoin_sources_[pair];
  source.source_path = source_path;
  source.target_path = target_path;
  source.index_path = index_path;
}

void FleetSupervisor::WatchLoop() {
  while (!stop_.load()) {
    const std::vector<ShardProcessStatus> statuses = manager_->Status_();
    {
      // tracked_ is sized at construction and never resized, so references
      // into it stay valid across the unlock windows inside StepRecovery.
      std::unique_lock<std::mutex> lock(mu_);
      for (Tracked& tracked : tracked_) {
        if (stop_.load()) break;
        if (tracked.permanently_failed) continue;
        const ShardProcessStatus* process = nullptr;
        for (const ShardProcessStatus& status : statuses) {
          if (status.shard_id == tracked.shard_id) {
            process = &status;
            break;
          }
        }
        if (process == nullptr) continue;
        if (!tracked.recovering) {
          if (process->running) continue;
          // Death observed: quarantine FIRST, so the router stops routing
          // to (and never re-admits mid-recovery) this channel, then
          // schedule the first restart attempt under jittered backoff.
          tracked.recovering = true;
          tracked.respawned = false;
          tracked.death_observed = Clock::now();
          tracked.backoff_micros = policy_.initial_backoff_micros;
          tracked.next_attempt =
              Clock::now() + Micros(Jittered(tracked, tracked.backoff_micros));
          lock.unlock();
          (void)router_->Quarantine(tracked.shard_id);
          lock.lock();
          continue;
        }
        if (Clock::now() < tracked.next_attempt) continue;
        StepRecovery(lock, tracked, *process);
      }
    }
    std::this_thread::sleep_for(kWatchTick);
  }
}

void FleetSupervisor::StepRecovery(std::unique_lock<std::mutex>& lock,
                                   Tracked& tracked,
                                   const ShardProcessStatus& process) {
  const auto escalate = [this, &tracked] {
    tracked.backoff_micros = std::min(
        policy_.max_backoff_micros,
        static_cast<uint64_t>(static_cast<double>(tracked.backoff_micros) *
                              policy_.multiplier));
    tracked.next_attempt =
        Clock::now() + Micros(Jittered(tracked, tracked.backoff_micros));
  };
  const auto abandon_process = [this, &lock, &tracked] {
    // A permanently failed (or boot-dead) process must not linger half
    // alive on the socket: kill it; the next Status_() poll reaps it and
    // accounts the exit.
    if (!tracked.respawned) return;
    lock.unlock();
    (void)manager_->Kill(tracked.shard_id, SIGKILL);
    lock.lock();
    tracked.respawned = false;
  };

  if (!tracked.respawned) {
    lock.unlock();
    const Status spawned = manager_->Respawn(tracked.shard_id);
    lock.lock();
    if (!spawned.ok()) {
      ++tracked.spawn_failures;
      Strike(tracked);
      if (!tracked.permanently_failed) escalate();
      return;
    }
    tracked.respawned = true;
    tracked.spawned_at = Clock::now();
    // Fall through: probe immediately; a fast boot re-admits this tick.
  } else if (process.exits == process.spawns) {
    // Polled on a tick after the respawn, so an exit for every spawn means
    // the respawned process died too: strike now, not after the boot budget.
    ++tracked.boot_failures;
    tracked.respawned = false;
    Strike(tracked);
    if (!tracked.permanently_failed) escalate();
    return;
  }

  // Boot gate: the process exists but may not be listening yet.
  lock.unlock();
  const Result<std::string> health = ProbeHealth(tracked.socket_path);
  lock.lock();
  if (!health.ok()) {
    if (Clock::now() - tracked.spawned_at > Micros(policy_.boot_budget_micros)) {
      ++tracked.boot_failures;
      abandon_process();
      Strike(tracked);
      if (!tracked.permanently_failed) escalate();
    }
    // else: still booting — re-probe next tick (next_attempt already due).
    return;
  }

  // Version-converged re-join, THEN admission: the router must not see the
  // channel until the newcomer serves the fleet's snapshot version.
  lock.unlock();
  const Status converged = Converge(tracked);
  lock.lock();
  if (!converged.ok()) {
    ++tracked.rejoin_failures;
    Strike(tracked);
    if (tracked.permanently_failed) {
      abandon_process();
    } else {
      // Keep the process: the retry resumes at convergence, not respawn.
      escalate();
    }
    return;
  }

  lock.unlock();
  const Status readmitted = router_->Readmit(tracked.shard_id);
  lock.lock();
  if (!readmitted.ok()) {
    Strike(tracked);
    if (tracked.permanently_failed) {
      abandon_process();
    } else {
      escalate();
    }
    return;
  }

  tracked.recovering = false;
  tracked.respawned = false;
  tracked.backoff_micros = 0;
  ++tracked.restarts;
  tracked.last_restart_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - tracked.death_observed)
          .count());
  restart_latencies_.push_back(tracked.last_restart_micros);
  cv_.notify_all();
}

Status FleetSupervisor::Converge(const Tracked& tracked) {
  // The re-join fault point: an injected failure here leaves the shard
  // un-admitted (a strike + backoff retry), never half-joined.
  EM_INJECT_FAULT("fleet.rejoin.swap", StatusCode::kUnavailable);

  std::map<std::string, RejoinSource> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources = rejoin_sources_;
  }

  Result<std::string> mine = ProbeHealth(tracked.socket_path);
  if (!mine.ok()) {
    return Status::Unavailable("newcomer stopped answering health: " +
                               mine.status().message());
  }
  for (const std::string& pair_name : plan_.PairsOwnedBy(tracked.shard_id)) {
    const uint64_t my_version = HealthPairVersion(*mine, pair_name);
    // The fleet's converged version = max over the surviving owners. A
    // dead peer contributes no floor; if EVERY other owner is down there
    // is nothing to diverge from and the newcomer's version IS the floor.
    uint64_t fleet_version = 0;
    for (const ShardSpec& shard : plan_.shards) {
      if (shard.id == tracked.shard_id) continue;
      const std::vector<std::string> owned = plan_.PairsOwnedBy(shard.id);
      if (std::find(owned.begin(), owned.end(), pair_name) == owned.end()) {
        continue;
      }
      Result<std::string> peer = ProbeHealth(shard.socket_path);
      if (!peer.ok()) continue;
      fleet_version =
          std::max(fleet_version, HealthPairVersion(*peer, pair_name));
    }
    if (fleet_version <= my_version) continue;

    // Drive the newcomer (and ONLY the newcomer — survivors already serve
    // this version) to the fleet's version via the shard-side swap floor,
    // onto the files of the last fleet-wide swap.
    const RejoinSource& source = sources[pair_name];
    WireRequest swap;
    swap.verb = WireRequest::Verb::kSwap;
    swap.pair = pair_name;
    swap.source_path = source.source_path;
    swap.target_path = source.target_path;
    swap.index_path = source.index_path;
    swap.swap_min_version = fleet_version;
    Result<std::string> reply = CallOnce(tracked.socket_path, swap);
    if (!reply.ok()) {
      return Status(reply.status().code(),
                    "re-join swap: " + reply.status().message());
    }
    // Confirm the swap landed exactly on the fleet version.
    Result<uint64_t> swapped = ParseSwappedVersion(*reply);
    EM_RETURN_NOT_OK(swapped.status());
    if (*swapped != fleet_version) {
      return Status::Internal("re-join swap landed on v" +
                              std::to_string(*swapped) + ", fleet is at v" +
                              std::to_string(fleet_version));
    }
  }
  return Status::OK();
}

void FleetSupervisor::Strike(Tracked& tracked) {
  const auto now = Clock::now();
  tracked.strike_times.push_back(now);
  const auto cutoff = now - Micros(policy_.strike_window_micros);
  tracked.strike_times.erase(
      std::remove_if(tracked.strike_times.begin(), tracked.strike_times.end(),
                     [cutoff](Clock::time_point t) { return t < cutoff; }),
      tracked.strike_times.end());
  if (tracked.strike_times.size() >= policy_.max_strikes) {
    tracked.permanently_failed = true;
    tracked.recovering = false;
    cv_.notify_all();
  }
}

uint64_t FleetSupervisor::Jittered(Tracked& tracked, uint64_t base_micros) {
  // Full jitter over [base/2, base] — desynchronizes simultaneous restarts
  // while keeping the schedule deterministic per (seed, shard).
  const uint64_t half = base_micros / 2;
  return half + tracked.rng.NextBounded(base_micros - half + 1);
}

std::vector<ShardRecoveryStatus> FleetSupervisor::Ledger() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardRecoveryStatus> out;
  out.reserve(tracked_.size());
  const auto now = Clock::now();
  const auto cutoff = now - Micros(policy_.strike_window_micros);
  for (const Tracked& tracked : tracked_) {
    ShardRecoveryStatus status;
    status.shard_id = tracked.shard_id;
    status.restarts = tracked.restarts;
    status.spawn_failures = tracked.spawn_failures;
    status.rejoin_failures = tracked.rejoin_failures;
    status.boot_failures = tracked.boot_failures;
    for (const Clock::time_point t : tracked.strike_times) {
      if (t >= cutoff) ++status.strikes;
    }
    status.permanently_failed = tracked.permanently_failed;
    status.recovering = tracked.recovering;
    status.last_restart_micros = tracked.last_restart_micros;
    out.push_back(status);
  }
  return out;
}

JsonValue FleetSupervisor::StatusJson() const {
  uint64_t total_restarts = 0;
  JsonValue::Array shards;
  for (const ShardRecoveryStatus& s : Ledger()) {
    total_restarts += s.restarts;
    shards.push_back(JsonValue::Object{
        {"id", s.shard_id}, {"restarts", s.restarts},
        {"spawn_failures", s.spawn_failures},
        {"rejoin_failures", s.rejoin_failures},
        {"boot_failures", s.boot_failures}, {"strikes", s.strikes},
        {"permanently_failed", s.permanently_failed},
        {"recovering", s.recovering},
        {"last_restart_us", s.last_restart_micros}});
  }
  return JsonValue::Object{{"policy", policy_.ToString()},
                           {"restarts", total_restarts},
                           {"shards", std::move(shards)}};
}

std::vector<uint64_t> FleetSupervisor::RestartLatencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restart_latencies_;
}

Status FleetSupervisor::WaitRestarts(int shard_id, uint64_t restarts_at_least,
                                     uint64_t budget_micros) {
  std::unique_lock<std::mutex> lock(mu_);
  Tracked* tracked = nullptr;
  for (Tracked& candidate : tracked_) {
    if (candidate.shard_id == shard_id) {
      tracked = &candidate;
      break;
    }
  }
  if (tracked == nullptr) {
    return Status::NotFound("no shard " + std::to_string(shard_id));
  }
  const auto deadline = Clock::now() + Micros(budget_micros);
  for (;;) {
    if (tracked->restarts >= restarts_at_least) return Status::OK();
    if (tracked->permanently_failed) {
      return Status::Internal(
          "shard " + std::to_string(shard_id) +
          " permanently failed (strike budget spent) after " +
          std::to_string(tracked->restarts) + " restarts");
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      if (tracked->restarts >= restarts_at_least) return Status::OK();
      return Status::DeadlineExceeded(
          "shard " + std::to_string(shard_id) + " reached " +
          std::to_string(tracked->restarts) + "/" +
          std::to_string(restarts_at_least) + " restarts in budget");
    }
  }
}

}  // namespace entmatcher

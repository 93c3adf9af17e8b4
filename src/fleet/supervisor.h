#ifndef ENTMATCHER_FLEET_SUPERVISOR_H_
#define ENTMATCHER_FLEET_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"

namespace entmatcher {

/// Restart discipline for one shard: capped exponential backoff with seeded
/// jitter (the RetryPolicy shape applied to process restarts), a strike
/// budget over a sliding window, and a permanent-failure state once the
/// budget is spent. Every failed recovery step — a refused spawn, a boot
/// that never answers health, a re-join swap that fails — is one strike;
/// max_strikes strikes inside strike_window_micros retire the shard for
/// good (it stays quarantined; the rest of the fleet keeps serving).
///
/// Determinism: the jitter stream is forked per shard from jitter_seed
/// (0 = EM_FAULT_SEED when set, else 17), so a chaos run under a fixed seed
/// produces the same restart schedule and an exactly assertable ledger.
struct RestartPolicy {
  /// Master switch: false = never restart (the pre-supervisor behavior).
  bool enabled = true;
  uint32_t max_strikes = 5;
  uint64_t initial_backoff_micros = 50000;
  uint64_t max_backoff_micros = 2000000;
  double multiplier = 2.0;
  /// Strikes older than this no longer count against the budget.
  uint64_t strike_window_micros = 60000000;
  /// How long a respawned process that stays alive gets to answer health
  /// before the supervisor gives up on the boot (SIGKILL + strike). One
  /// that exits first strikes as soon as the watch loop reaps it.
  uint64_t boot_budget_micros = 15000000;
  /// 0 = derive from EM_FAULT_SEED (or 17 when unset).
  uint64_t jitter_seed = 0;

  /// Parses the `--restart-policy=` spec: "off", "on", or a comma list of
  ///   max_strikes=N backoff_us=N max_backoff_us=N multiplier=F
  ///   window_us=N boot_budget_us=N seed=N
  /// e.g. "max_strikes=3,backoff_us=20000". Unknown keys are refused.
  static Result<RestartPolicy> Parse(std::string_view spec);

  /// Round-trips through Parse.
  std::string ToString() const;
};

/// One shard's recovery ledger, exact under a fixed seed.
struct ShardRecoveryStatus {
  int shard_id = 0;
  /// Completed recovery cycles: the shard was respawned, converged to the
  /// fleet's snapshot version, and re-admitted to the router.
  uint64_t restarts = 0;
  uint64_t spawn_failures = 0;
  /// Re-join convergence failures (the fleet.rejoin.swap path): the shard
  /// process is up but was left quarantined, to be retried under backoff.
  uint64_t rejoin_failures = 0;
  /// Boot failures: the process came up but never answered health.
  uint64_t boot_failures = 0;
  /// Strikes currently inside the window.
  uint64_t strikes = 0;
  bool permanently_failed = false;
  bool recovering = false;
  /// Reap→re-admission latency of the last completed cycle.
  uint64_t last_restart_micros = 0;
};

/// The self-healing layer over ShardManager + Router: polls the manager's
/// Status_() every 5 ms — the read that reaps exited shards — and drives
/// each dead one through the recovery state machine —
///
///   dead → quarantined → [backoff] → respawned → healthy → converged
///        → re-admitted
///
/// with every step under the RestartPolicy. The step that makes crash
/// cycles safe is *version-converged re-join*: a restarted shard boots cold
/// from the plan's files at snapshot version 1, so before re-admission the
/// supervisor calls Router::Converge, which moves the newcomer onto what
/// each of its pairs serves (the router's record of the last converged
/// swap, at exactly its version). Until that succeeds the router never
/// dials the channel, so a restarted shard answers only at a version the
/// router recorded, on that version's files.
///
/// Fault points: `fleet.spawn` fires inside ShardManager::Respawn;
/// `fleet.rejoin.swap` fires before Router::Converge — an injected failure
/// leaves the shard un-admitted and retries under the policy.
class FleetSupervisor {
 public:
  /// `manager` and `router` must outlive the supervisor. Call Stop() (or
  /// destroy the supervisor) BEFORE ShardManager::StopAll so teardown kills
  /// stay final — the manager refuses respawns once stopping anyway.
  FleetSupervisor(ShardManager* manager, Router* router,
                  const ShardPlan& plan, RestartPolicy policy);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// Starts the watch thread. kFailedPrecondition if already running.
  Status Start();

  /// Stops and joins the watch thread. Idempotent.
  void Stop();

  /// Per-shard recovery ledger snapshot.
  std::vector<ShardRecoveryStatus> Ledger() const;

  /// {"policy": "...", "restarts": N, "shards": [...]} — the `supervisor`
  /// member of the router's `health` reply (`fleet status`).
  JsonValue StatusJson() const;

  /// Reap→re-admission latencies of every completed recovery cycle, in
  /// completion order (bench_fleet's restart-latency percentiles).
  std::vector<uint64_t> RestartLatencies() const;

  /// Blocks until `shard_id`'s completed-restart count reaches
  /// `restarts_at_least` (an absolute target — callers track how many kills
  /// they issued, so the wait is race-free against fast recoveries).
  /// kInternal once the shard permanently fails, kDeadlineExceeded on
  /// budget, kNotFound for an unknown shard.
  Status WaitRestarts(int shard_id, uint64_t restarts_at_least,
                      uint64_t budget_micros);

  const RestartPolicy& policy() const { return policy_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Recovery state machine instance for one shard (guarded by mu_).
  struct Tracked {
    int shard_id = 0;
    std::string socket_path;
    Rng rng{0};

    bool recovering = false;
    /// The process was relaunched and is now being waited on for health +
    /// convergence (a rejoin failure retries from here, not from respawn).
    bool respawned = false;
    bool permanently_failed = false;
    Clock::time_point death_observed;
    Clock::time_point spawned_at;
    Clock::time_point next_attempt;
    uint64_t backoff_micros = 0;
    std::vector<Clock::time_point> strike_times;

    uint64_t restarts = 0;
    uint64_t spawn_failures = 0;
    uint64_t rejoin_failures = 0;
    uint64_t boot_failures = 0;
    uint64_t last_restart_micros = 0;
  };

  void WatchLoop();
  /// One recovery step for a shard whose next_attempt has arrived, given
  /// this tick's process status. mu_ is held on entry and exit but released
  /// around socket I/O.
  void StepRecovery(std::unique_lock<std::mutex>& lock, Tracked& tracked,
                    const ShardProcessStatus& process);
  /// Records one strike; flips permanently_failed when the window budget is
  /// spent. mu_ held.
  void Strike(Tracked& tracked);
  /// Full-jitter draw over [base/2, base] from the shard's stream. mu_ held.
  uint64_t Jittered(Tracked& tracked, uint64_t base_micros);

  ShardManager* manager_;
  Router* router_;
  RestartPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Tracked> tracked_;
  std::vector<uint64_t> restart_latencies_;

  std::thread watcher_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_FLEET_SUPERVISOR_H_

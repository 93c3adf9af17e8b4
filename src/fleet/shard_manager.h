#ifndef ENTMATCHER_FLEET_SHARD_MANAGER_H_
#define ENTMATCHER_FLEET_SHARD_MANAGER_H_

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/plan.h"

namespace entmatcher {

/// How the manager launches one shard process. The argv template is a list
/// of tokens; each token has `{plan}`, `{shard}`, and `{socket}` substituted
/// before exec. The default template self-execs the current binary
/// (/proc/self/exe) as `fleet serve --plan={plan} --shard={shard}`, which is
/// how the CLI's router mode spawns its own shards.
struct ShardCommand {
  std::vector<std::string> argv;
  /// What `{plan}` expands to (SelfServe sets it; custom templates may too).
  std::string plan_path;

  /// The self-exec default described above. `self_exe` defaults to
  /// /proc/self/exe resolved at call time.
  static ShardCommand SelfServe(const std::string& plan_path,
                                const std::string& self_exe = "");
};

/// One managed shard's view: last known pid, liveness, exit accounting.
struct ShardProcessStatus {
  int shard_id = 0;
  pid_t pid = -1;
  bool running = false;
  /// Times this shard exited (crash or kill) since Start.
  uint64_t exits = 0;
  /// Times this shard was spawned (1 after Start; +1 per Respawn).
  uint64_t spawns = 0;
  int last_exit_code = 0;     ///< valid when exited normally
  int last_term_signal = 0;   ///< valid when killed by a signal
};

/// Spawns and supervises the shard processes of a plan. Each shard is a
/// child process running a MatchServer behind the plan's unix socket; the
/// manager forks/execs them and exposes liveness both at the process level
/// (running?) and the protocol level (does `health` answer?). It starts no
/// thread: every call that reads or acts on the children (Status_, Kill,
/// Respawn, WaitHealthy, StopAll) first reaps the ones that have exited
/// (waitpid WNOHANG), so a dead child is seen as dead by the next read and
/// stays a zombie until then. A supervised fleet is reaped by
/// FleetSupervisor's 5 ms status poll.
///
/// The manager itself still does NOT decide to restart crashed shards:
/// restart *policy* (backoff, strike budget, permanent failure) lives in
/// FleetSupervisor. The manager provides the mechanism — Respawn re-forks
/// one dead shard with its original argv, Kill injects faults, StatusJson
/// observes, StopAll tears down (shutdown verb, then SIGTERM, then
/// SIGKILL). Once StopAll begins, Respawn is refused for good: teardown
/// must never race a restart into signaling a recycled PID.
class ShardManager {
 public:
  ShardManager() = default;
  ~ShardManager();

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  /// Forks one child per plan shard using `command` (tokens expanded per
  /// shard). Pre-existing socket files are unlinked first so a stale socket
  /// never shadows a fresh shard.
  Status Start(const ShardPlan& plan, const ShardCommand& command);

  /// Blocks until every shard's socket answers `health`, or the budget runs
  /// out (kDeadlineExceeded listing the shards still unhealthy). A shard
  /// that already exited fails fast (kInternal) — it will never get healthy.
  Status WaitHealthy(uint64_t budget_micros);

  /// Sends `sig` to one shard's process — the chaos tests' fault injector
  /// (SIGKILL mid-storm). kNotFound if the shard is not running.
  Status Kill(int shard_id, int sig);

  /// Re-forks one shard whose process has exited, with the argv it was
  /// originally started with (stale socket unlinked first). The
  /// restart *mechanism* behind FleetSupervisor. kFailedPrecondition while
  /// the shard still runs (kill it first), or once StopAll has begun —
  /// teardown and restart must never interleave. Carries the `fleet.spawn`
  /// fault point, so chaos plans can make the exec fail deterministically.
  Status Respawn(int shard_id);

  /// Orderly teardown: `shutdown` over the socket where it still answers,
  /// SIGTERM for the rest, SIGKILL after a grace period, then reap
  /// everything. Idempotent.
  void StopAll();

  /// Process-level status for every managed shard.
  std::vector<ShardProcessStatus> Status_() const;

  /// `{"shards": [{id, pid, running, exits, ...}, ...]}`.
  std::string StatusJson() const;

 private:
  struct Child {
    int shard_id = 0;
    std::string socket_path;
    /// Fully substituted argv, retained so Respawn re-execs exactly what
    /// Start launched.
    std::vector<std::string> argv;
    pid_t pid = -1;
    bool running = false;
    uint64_t exits = 0;
    uint64_t spawns = 0;
    int last_exit_code = 0;
    int last_term_signal = 0;
  };

  /// fork + exec one shard. Only async-signal-safe calls between fork and
  /// exec (no allocation — argv is prepared before the fork).
  Status Spawn(Child& child, const std::vector<std::string>& argv);

  /// Records the exit of every running child that has terminated: waitpid
  /// WNOHANG, or blocking when `block` (StopAll's final reap). mu_ held.
  void Reap(bool block) const;

  mutable std::mutex mu_;
  /// Mutable so that const reads (Status_) can reap first.
  mutable std::vector<Child> children_;
  bool started_ = false;
  /// Set (under mu_) the moment StopAll begins and never cleared until the
  /// next Start: the gate that refuses Respawn during/after teardown.
  bool stopping_ = false;
  /// Serializes whole StopAll invocations — two concurrent teardowns
  /// (destructor + explicit call) must not both run the final blocking
  /// reap.
  std::mutex stop_mu_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_FLEET_SHARD_MANAGER_H_

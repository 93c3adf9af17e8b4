#include "fleet/shard_manager.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/fault.h"
#include "common/json.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace entmatcher {

namespace {

// How often the waits below reap the children and probe their sockets: the
// FleetSupervisor's status poll interval.
constexpr std::chrono::milliseconds kPollTick{5};

std::string Substitute(std::string token, const std::string& plan_path,
                       int shard_id, const std::string& socket_path) {
  const auto replace_all = [&token](const std::string& from,
                                    const std::string& to) {
    size_t pos = 0;
    while ((pos = token.find(from, pos)) != std::string::npos) {
      token.replace(pos, from.size(), to);
      pos += to.size();
    }
  };
  replace_all("{plan}", plan_path);
  replace_all("{shard}", std::to_string(shard_id));
  replace_all("{socket}", socket_path);
  return token;
}

}  // namespace

ShardCommand ShardCommand::SelfServe(const std::string& plan_path,
                                     const std::string& self_exe) {
  ShardCommand command;
  command.argv = {self_exe.empty() ? "/proc/self/exe" : self_exe,
                  "fleet",
                  "serve",
                  "--plan={plan}",
                  "--shard={shard}"};
  command.plan_path = plan_path;
  return command;
}

ShardManager::~ShardManager() { StopAll(); }

Status ShardManager::Spawn(Child& child,
                           const std::vector<std::string>& argv) {
  // Prepare the exec vector BEFORE forking: between fork and exec only
  // async-signal-safe calls are allowed (another thread may hold the
  // allocator lock at fork time).
  std::vector<char*> exec_argv;
  exec_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    exec_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  exec_argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. execv or die — _exit, never exit (no atexit handlers from the
    // parent's state).
    execv(exec_argv[0], exec_argv.data());
    _exit(127);
  }
  child.pid = pid;
  child.running = true;
  ++child.spawns;
  return Status::OK();
}

Status ShardManager::Start(const ShardPlan& plan,
                           const ShardCommand& command) {
  EM_RETURN_NOT_OK(plan.Validate());
  if (command.argv.empty()) {
    return Status::InvalidArgument("shard command has no argv");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("shard manager already started");
  }
  children_.clear();
  for (const ShardSpec& shard : plan.shards) {
    ::unlink(shard.socket_path.c_str());
    Child child;
    child.shard_id = shard.id;
    child.socket_path = shard.socket_path;
    child.argv.reserve(command.argv.size());
    for (const std::string& token : command.argv) {
      child.argv.push_back(
          Substitute(token, command.plan_path, shard.id, shard.socket_path));
    }
    const Status spawned = Spawn(child, child.argv);
    if (!spawned.ok()) {
      // Roll back the children already launched: kill AND reap them, so a
      // failed Start leaves neither zombies nor pids that a later signal
      // could hit after recycling.
      for (const Child& launched : children_) ::kill(launched.pid, SIGKILL);
      Reap(/*block=*/true);
      children_.clear();
      return spawned;
    }
    children_.push_back(std::move(child));
  }
  started_ = true;
  stopping_ = false;
  return Status::OK();
}

void ShardManager::Reap(bool block) const {
  for (Child& child : children_) {
    if (!child.running) continue;
    int wstatus = 0;
    const pid_t reaped = ::waitpid(child.pid, &wstatus, block ? 0 : WNOHANG);
    if (reaped == child.pid) {
      child.running = false;
      ++child.exits;
      if (WIFEXITED(wstatus)) {
        child.last_exit_code = WEXITSTATUS(wstatus);
      } else if (WIFSIGNALED(wstatus)) {
        child.last_term_signal = WTERMSIG(wstatus);
      }
    } else if (reaped < 0 && errno == ECHILD) {
      // Defensive: the pid is gone from our process's child table. Mark
      // it dead without counting an exit we never observed.
      child.running = false;
    }
  }
}

Status ShardManager::WaitHealthy(uint64_t budget_micros) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(budget_micros);
  WireRequest health;
  health.verb = WireRequest::Verb::kHealth;
  for (;;) {
    std::vector<std::pair<int, std::string>> pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Reap(/*block=*/false);
      for (const Child& child : children_) {
        if (!child.running) {
          return Status::Internal(
              "shard " + std::to_string(child.shard_id) +
              " exited before becoming healthy (exit code " +
              std::to_string(child.last_exit_code) + ", signal " +
              std::to_string(child.last_term_signal) + ")");
        }
        pending.push_back({child.shard_id, child.socket_path});
      }
    }
    std::string unhealthy;
    for (const auto& [id, socket] : pending) {
      if (!CallOnce(socket, health).ok()) {
        unhealthy += (unhealthy.empty() ? "" : ", ") + std::to_string(id);
      }
    }
    if (unhealthy.empty()) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("shards not healthy in time: " +
                                      unhealthy);
    }
    std::this_thread::sleep_for(kPollTick);
  }
}

Status ShardManager::Kill(int shard_id, int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  Reap(/*block=*/false);
  for (Child& child : children_) {
    if (child.shard_id != shard_id) continue;
    if (!child.running) {
      return Status::NotFound("shard " + std::to_string(shard_id) +
                              " is not running");
    }
    if (::kill(child.pid, sig) != 0) {
      return Status::Internal(std::string("kill: ") + std::strerror(errno));
    }
    return Status::OK();
  }
  return Status::NotFound("no shard " + std::to_string(shard_id));
}

Status ShardManager::Respawn(int shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stopping_) {
    return Status::FailedPrecondition(
        "shard manager is " + std::string(started_ ? "stopping" : "stopped") +
        "; respawn refused");
  }
  Reap(/*block=*/false);
  for (Child& child : children_) {
    if (child.shard_id != shard_id) continue;
    if (child.running) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard_id) +
          " is still running (pid " + std::to_string(child.pid) +
          "); respawn requires a reaped exit");
    }
    EM_INJECT_FAULT("fleet.spawn", StatusCode::kInternal);
    ::unlink(child.socket_path.c_str());
    return Spawn(child, child.argv);
  }
  return Status::NotFound("no shard " + std::to_string(shard_id));
}

void ShardManager::StopAll() {
  // One teardown at a time: concurrent StopAll (destructor racing an
  // explicit call) must not reap a child twice.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  std::vector<std::string> live_sockets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    // From here on Respawn is refused: the live set below stays the final
    // process set, so no phase of the teardown can signal a pid that a
    // racing restart (or the kernel recycling a reaped pid) replaced.
    stopping_ = true;
    Reap(/*block=*/false);
    for (const Child& child : children_) {
      if (child.running) live_sockets.push_back(child.socket_path);
    }
  }
  // Phase 1: polite — the shutdown verb lets a shard drain its queue.
  WireRequest shutdown;
  shutdown.verb = WireRequest::Verb::kShutdown;
  for (const std::string& socket : live_sockets) {
    (void)CallOnce(socket, shutdown);
  }
  // Phase 2: reap the shards as they exit, for up to a 2 s grace, then
  // SIGTERM the ones still running and SIGKILL what survives 100 ms more.
  // Each step returns as soon as every child is reaped.
  const auto reaped_within = [this](std::chrono::milliseconds budget) {
    const auto end = std::chrono::steady_clock::now() + budget;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        Reap(/*block=*/false);
        if (std::none_of(children_.begin(), children_.end(),
                         [](const Child& child) { return child.running; })) {
          return true;
        }
      }
      if (std::chrono::steady_clock::now() >= end) return false;
      std::this_thread::sleep_for(kPollTick);
    }
  };
  const auto signal_running = [this](int sig) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Child& child : children_) {
      if (child.running) ::kill(child.pid, sig);
    }
  };
  if (!reaped_within(std::chrono::milliseconds(2000))) {
    signal_running(SIGTERM);
    if (!reaped_within(std::chrono::milliseconds(100))) {
      signal_running(SIGKILL);
    }
  }
  // Final blocking reap so no zombie outlives the manager.
  std::lock_guard<std::mutex> lock(mu_);
  Reap(/*block=*/true);
  started_ = false;
}

std::vector<ShardProcessStatus> ShardManager::Status_() const {
  std::lock_guard<std::mutex> lock(mu_);
  Reap(/*block=*/false);
  std::vector<ShardProcessStatus> out;
  out.reserve(children_.size());
  for (const Child& child : children_) {
    ShardProcessStatus status;
    status.shard_id = child.shard_id;
    status.pid = child.pid;
    status.running = child.running;
    status.exits = child.exits;
    status.spawns = child.spawns;
    status.last_exit_code = child.last_exit_code;
    status.last_term_signal = child.last_term_signal;
    out.push_back(status);
  }
  return out;
}

}  // namespace entmatcher

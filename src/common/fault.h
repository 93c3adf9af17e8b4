#ifndef ENTMATCHER_COMMON_FAULT_H_
#define ENTMATCHER_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace entmatcher {

/// Deterministic fault-injection substrate.
///
/// Production code declares *named injection points* at the places that can
/// actually fail under pressure — engine scores passes, workspace leases,
/// index loads, the socket frame loops — via EM_INJECT_FAULT below, or
/// FaultInjector::Global().Param() / .Fired() at sites that take a numeric
/// parameter or corrupt data in place. A FaultPlan (parsed from a compact
/// spec string, usually the EM_FAULT_PLAN environment variable) arms a set
/// of rules against those points: each rule fires on a seeded-RNG
/// probability or on every nth call, optionally capped, and either injects a
/// Status, injects latency, or hands the call site a numeric parameter
/// (e.g. a forced write-chunk size).
///
/// Every build compiles the points. A disarmed point costs a call into the
/// injector, one acquire load of `armed()` and a branch; the points sit at
/// per-query, per-lease, per-frame and per-load sites, never in a kernel.
///
/// Determinism: rules draw from per-rule RNG streams forked from the armed
/// seed, and per-rule call counters are advanced under one mutex, so a
/// single-threaded replay of the same call sequence fires identically.
/// Under concurrency the *interleaving* decides which caller absorbs a
/// fault; the chaos invariants (tests/chaos/) are written against that
/// reality — every request terminates with a definite Status and successful
/// responses stay bit-identical to a fault-free run.

/// What one armed rule does when it fires.
enum class FaultKind {
  /// Return an injected Status from the call site (after any latency).
  kStatus,
  /// Only sleep for latency_micros; the call proceeds normally.
  kDelay,
  /// Expose `arg` to Param() call sites; no status, no sleep.
  kParam,
};

/// One parsed rule of a FaultPlan.
struct FaultRule {
  std::string point;
  FaultKind kind = FaultKind::kStatus;
  /// Trigger: fire every `nth` call when nth > 0, else Bernoulli(probability)
  /// per call from this rule's seeded stream.
  double probability = 0.0;
  uint64_t nth = 0;
  /// Stop firing after this many hits (0 = unlimited).
  uint64_t max_fires = 0;
  /// Status to inject (kStatus rules); unset means the call site's default.
  std::optional<StatusCode> code;
  /// Sleep applied on fire (kStatus or kDelay rules).
  uint64_t latency_micros = 0;
  /// Numeric parameter for kParam rules (e.g. forced chunk size).
  uint64_t arg = 0;
};

/// A parsed set of fault rules.
///
/// Spec grammar (also accepted via EM_FAULT_PLAN):
///   plan  := rule (';' rule)*
///   rule  := point ':' kv (',' kv)*
///   kv    := 'p=' float | 'nth=' uint | 'max=' uint | 'code=' StatusCode
///          | 'latency_us=' uint | 'arg=' uint
/// Every rule needs a trigger (p= or nth=). A rule with code= (or with
/// neither latency_us= nor arg=) injects a Status; latency_us= alone delays;
/// arg= alone parameterizes. Example:
///   "engine.scores:p=0.3,code=Internal;socket.write:nth=7,max=3"
class FaultPlan {
 public:
  FaultPlan() = default;

  static Result<FaultPlan> Parse(std::string_view spec);

  const std::vector<FaultRule>& rules() const { return rules_; }
  const std::string& spec() const { return spec_; }
  bool empty() const { return rules_.empty(); }

 private:
  std::vector<FaultRule> rules_;
  std::string spec_;
};

/// Process-wide fault registry. Thread-safe; disarmed by default.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms `plan`; rule RNG streams are forked from `seed`. Replaces any
  /// previously armed plan and resets all counters.
  void Arm(FaultPlan plan, uint64_t seed);

  /// Disarms everything; all points fall through.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Evaluates `point`'s status/delay rules for this call: sleeps any
  /// injected latency, then returns the Status to inject — OK when nothing
  /// fired (or only a delay did). `default_code` fills in for rules without
  /// an explicit code=.
  Status InjectedStatus(std::string_view point, StatusCode default_code);

  /// Evaluates `point`'s kParam rules: the firing rule's arg, or 0.
  uint64_t Param(std::string_view point);

  /// True when any rule on `point` fires for this call (used by sites that
  /// corrupt data in place rather than return a Status).
  bool Fired(std::string_view point);

  /// Total fires across all rules since Arm.
  uint64_t total_fires() const;

  /// Stable identity of the armed plan for health/bench reporting:
  /// "off" when disarmed, else "<16-hex FNV of spec@seed>:<spec>".
  std::string Fingerprint() const;

 private:
  FaultInjector() = default;

  struct ArmedRule {
    FaultRule rule;
    Rng rng{0};
    uint64_t calls = 0;
    uint64_t fires = 0;
  };

  /// Advances matching rules' counters; returns the fired subset's actions.
  struct Actions {
    uint64_t latency_micros = 0;
    std::optional<StatusCode> code;
    uint64_t arg = 0;
    bool any = false;
  };
  Actions Evaluate(std::string_view point, bool params_only);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<ArmedRule> rules_;
  uint64_t seed_ = 0;
  std::string spec_;
};

/// Arms the global injector from EM_FAULT_PLAN / EM_FAULT_SEED. No plan in
/// the environment is OK (stays disarmed); a malformed plan or seed is
/// kInvalidArgument.
Status ArmFaultInjectionFromEnv();

/// Returns the Status injected at `point` from the enclosing function, which
/// must return Status or Result<T>.
#define EM_INJECT_FAULT(point, default_code)                       \
  do {                                                             \
    ::entmatcher::Status _em_fault_status =                        \
        ::entmatcher::FaultInjector::Global().InjectedStatus(      \
            (point), (default_code));                              \
    if (!_em_fault_status.ok()) return _em_fault_status;           \
  } while (0)

}  // namespace entmatcher

#endif  // ENTMATCHER_COMMON_FAULT_H_

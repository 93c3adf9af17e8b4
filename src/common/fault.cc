#include "common/fault.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace entmatcher {

namespace {

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  std::string buf(text);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  plan.spec_ = std::string(spec);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t semi = spec.find(';', pos);
    std::string_view rule_text =
        spec.substr(pos, semi == std::string_view::npos ? std::string_view::npos
                                                        : semi - pos);
    pos = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (rule_text.empty()) continue;

    size_t colon = rule_text.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("fault rule missing 'point:' prefix: '" +
                                     std::string(rule_text) + "'");
    }
    FaultRule rule;
    rule.point = std::string(rule_text.substr(0, colon));
    bool has_trigger = false;
    bool has_code = false;
    bool has_latency = false;
    bool has_arg = false;

    std::string_view kvs = rule_text.substr(colon + 1);
    size_t kv_pos = 0;
    while (kv_pos <= kvs.size()) {
      size_t comma = kvs.find(',', kv_pos);
      std::string_view kv = kvs.substr(
          kv_pos,
          comma == std::string_view::npos ? std::string_view::npos
                                          : comma - kv_pos);
      kv_pos = comma == std::string_view::npos ? kvs.size() + 1 : comma + 1;
      if (kv.empty()) continue;

      size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("fault rule option missing '=': '" +
                                       std::string(kv) + "'");
      }
      std::string_view key = kv.substr(0, eq);
      std::string_view value = kv.substr(eq + 1);
      if (key == "p") {
        double p = 0.0;
        if (!ParseDouble(value, &p) || p < 0.0 || p > 1.0) {
          return Status::InvalidArgument("fault rule p= must be in [0,1]: '" +
                                         std::string(value) + "'");
        }
        rule.probability = p;
        has_trigger = true;
      } else if (key == "nth") {
        uint64_t n = 0;
        if (!ParseUint64(value, &n) || n == 0) {
          return Status::InvalidArgument(
              "fault rule nth= must be a positive integer: '" +
              std::string(value) + "'");
        }
        rule.nth = n;
        has_trigger = true;
      } else if (key == "max") {
        if (!ParseUint64(value, &rule.max_fires)) {
          return Status::InvalidArgument("fault rule max= must be an integer: '" +
                                         std::string(value) + "'");
        }
      } else if (key == "code") {
        StatusCode code = StatusCodeFromString(value);
        if (StatusCodeToString(code) != value || code == StatusCode::kOk) {
          return Status::InvalidArgument("fault rule code= unknown or kOk: '" +
                                         std::string(value) + "'");
        }
        rule.code = code;
        has_code = true;
      } else if (key == "latency_us") {
        if (!ParseUint64(value, &rule.latency_micros)) {
          return Status::InvalidArgument(
              "fault rule latency_us= must be an integer: '" +
              std::string(value) + "'");
        }
        has_latency = true;
      } else if (key == "arg") {
        if (!ParseUint64(value, &rule.arg)) {
          return Status::InvalidArgument("fault rule arg= must be an integer: '" +
                                         std::string(value) + "'");
        }
        has_arg = true;
      } else {
        return Status::InvalidArgument("fault rule unknown option '" +
                                       std::string(key) + "'");
      }
    }

    if (!has_trigger) {
      return Status::InvalidArgument("fault rule for '" + rule.point +
                                     "' needs a trigger (p= or nth=)");
    }
    if (has_arg && has_code) {
      return Status::InvalidArgument("fault rule for '" + rule.point +
                                     "' cannot combine arg= with code=");
    }
    if (has_code) {
      rule.kind = FaultKind::kStatus;
    } else if (has_arg) {
      rule.kind = FaultKind::kParam;
    } else if (has_latency) {
      rule.kind = FaultKind::kDelay;
    } else {
      rule.kind = FaultKind::kStatus;  // code defaults to the call site's
    }
    plan.rules_.push_back(std::move(rule));
  }
  return plan;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultPlan plan, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  seed_ = seed;
  spec_ = plan.spec();
  Rng root(seed);
  uint64_t index = 0;
  for (const FaultRule& rule : plan.rules()) {
    ArmedRule armed;
    armed.rule = rule;
    armed.rng = root.Fork(index++);
    rules_.push_back(std::move(armed));
  }
  armed_.store(!rules_.empty(), std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  rules_.clear();
  spec_.clear();
  seed_ = 0;
}

FaultInjector::Actions FaultInjector::Evaluate(std::string_view point,
                                               bool params_only) {
  Actions actions;
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedRule& armed : rules_) {
    if (armed.rule.point != point) continue;
    bool is_param = armed.rule.kind == FaultKind::kParam;
    if (is_param != params_only) continue;
    ++armed.calls;
    if (armed.rule.max_fires > 0 && armed.fires >= armed.rule.max_fires) {
      continue;
    }
    bool fire = armed.rule.nth > 0 ? (armed.calls % armed.rule.nth == 0)
                                   : armed.rng.NextBernoulli(
                                         armed.rule.probability);
    if (!fire) continue;
    ++armed.fires;
    actions.any = true;
    actions.latency_micros += armed.rule.latency_micros;
    if (armed.rule.kind == FaultKind::kStatus && !actions.code.has_value()) {
      // Mark that a status rule fired; the concrete code (or the call site's
      // default) is resolved by the caller.
      actions.code = armed.rule.code.value_or(StatusCode::kOk);
    }
    if (is_param) actions.arg = armed.rule.arg;
  }
  return actions;
}

Status FaultInjector::InjectedStatus(std::string_view point,
                                     StatusCode default_code) {
  if (!armed()) return Status::OK();
  Actions actions = Evaluate(point, /*params_only=*/false);
  if (actions.latency_micros > 0) {
    // Sleep outside the registry lock so injected latency never serializes
    // unrelated points.
    std::this_thread::sleep_for(
        std::chrono::microseconds(actions.latency_micros));
  }
  if (!actions.code.has_value()) return Status::OK();
  StatusCode code =
      *actions.code == StatusCode::kOk ? default_code : *actions.code;
  return Status(code, "injected fault at '" + std::string(point) + "'");
}

uint64_t FaultInjector::Param(std::string_view point) {
  if (!armed()) return 0;
  Actions actions = Evaluate(point, /*params_only=*/true);
  return actions.any ? actions.arg : 0;
}

bool FaultInjector::Fired(std::string_view point) {
  if (!armed()) return false;
  return Evaluate(point, /*params_only=*/false).any;
}

uint64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const ArmedRule& armed : rules_) total += armed.fires;
  return total;
}

std::string FaultInjector::Fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rules_.empty()) return "off";
  // FNV-1a over "spec@seed" — stable across runs and platforms.
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](std::string_view text) {
    for (char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  };
  mix(spec_);
  mix("@");
  mix(std::to_string(seed_));
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[hash & 0xF];
    hash >>= 4;
  }
  out += ':';
  out += spec_;
  return out;
}

Status ArmFaultInjectionFromEnv() {
  const char* spec = std::getenv("EM_FAULT_PLAN");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  EM_ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::Parse(spec));
  uint64_t seed = 42;
  if (const char* seed_env = std::getenv("EM_FAULT_SEED")) {
    if (!ParseUint64(seed_env, &seed)) {
      return Status::InvalidArgument(
          std::string("EM_FAULT_SEED must be an unsigned integer: '") +
          seed_env + "'");
    }
  }
  FaultInjector::Global().Arm(std::move(plan), seed);
  return Status::OK();
}

}  // namespace entmatcher

#include "la/kernels/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace entmatcher {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
bool CpuHasAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool CpuHasAvx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}
#else
bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }
#endif

// The table for a tier, or null when the tier is not compiled in or the CPU
// lacks it. The per-ISA TUs are arch-gated in CMake; CMake defines
// ENTMATCHER_HAVE_* on this file for exactly the TUs it compiles, and the
// stubs below stand in for the rest so the link never needs an absent TU.
const KernelOps* TierOps(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return GetScalarKernels();
    case KernelTier::kAvx2:
      return CpuHasAvx2() ? GetAvx2Kernels() : nullptr;
    case KernelTier::kAvx512:
      return CpuHasAvx512() ? GetAvx512Kernels() : nullptr;
  }
  return nullptr;
}

std::atomic<const KernelOps*> g_active{nullptr};
std::once_flag g_env_once;

void InitFromEnv() {
  KernelTier tier = BestAvailableKernelTier();
  const char* env = std::getenv("EM_KERNEL_TIER");
  if (env != nullptr && *env != '\0' && std::string_view(env) != "auto") {
    Result<KernelTier> parsed = ParseKernelTier(env);
    if (parsed.ok() && KernelTierAvailable(*parsed)) {
      tier = *parsed;
    } else {
      std::fprintf(stderr,
                   "entmatcher: EM_KERNEL_TIER=%s is %s; using %s\n", env,
                   parsed.ok() ? "not available on this CPU/build"
                               : "not a known tier",
                   KernelTierName(tier));
    }
  }
  g_active.store(TierOps(tier), std::memory_order_release);
}

}  // namespace

#if !defined(ENTMATCHER_HAVE_AVX2)
const KernelOps* GetAvx2Kernels() { return nullptr; }
#endif
#if !defined(ENTMATCHER_HAVE_AVX512)
const KernelOps* GetAvx512Kernels() { return nullptr; }
#endif

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "?";
}

Result<KernelTier> ParseKernelTier(std::string_view name) {
  if (name == "scalar") return KernelTier::kScalar;
  if (name == "avx2") return KernelTier::kAvx2;
  if (name == "avx512") return KernelTier::kAvx512;
  return Status::InvalidArgument("unknown kernel tier: '" + std::string(name) +
                                 "' (want scalar|avx2|avx512|auto)");
}

bool KernelTierAvailable(KernelTier tier) { return TierOps(tier) != nullptr; }

KernelTier BestAvailableKernelTier() {
  if (KernelTierAvailable(KernelTier::kAvx512)) return KernelTier::kAvx512;
  if (KernelTierAvailable(KernelTier::kAvx2)) return KernelTier::kAvx2;
  return KernelTier::kScalar;
}

const KernelOps& ActiveKernels() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  std::call_once(g_env_once, InitFromEnv);
  return *g_active.load(std::memory_order_acquire);
}

KernelTier ActiveKernelTier() { return ActiveKernels().tier; }

Status SetKernelTier(KernelTier tier) {
  const KernelOps* ops = TierOps(tier);
  if (ops == nullptr) {
    return Status::InvalidArgument(
        std::string("kernel tier '") + KernelTierName(tier) +
        "' is not available on this CPU/build");
  }
  // Make sure the env-var path never overwrites an explicit choice later.
  std::call_once(g_env_once, [] {});
  g_active.store(ops, std::memory_order_release);
  return Status::OK();
}

std::string DetectedCpuFeatures() {
  std::string features;
  const auto add = [&features](const char* name) {
    if (!features.empty()) features += ' ';
    features += name;
  };
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("sse4.2")) add("sse4.2");
  if (__builtin_cpu_supports("avx")) add("avx");
  if (__builtin_cpu_supports("avx2")) add("avx2");
  if (__builtin_cpu_supports("fma")) add("fma");
  if (__builtin_cpu_supports("avx512f")) add("avx512f");
  if (__builtin_cpu_supports("avx512bw")) add("avx512bw");
  if (__builtin_cpu_supports("avx512dq")) add("avx512dq");
  if (__builtin_cpu_supports("avx512vl")) add("avx512vl");
#endif
  return features;
}

std::string KernelStatusJson() {
  std::string available;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!KernelTierAvailable(tier)) continue;
    if (!available.empty()) available += ' ';
    available += KernelTierName(tier);
  }
  std::string json = "{\"tier\":\"";
  json += KernelTierName(ActiveKernelTier());
  json += "\",\"available\":\"";
  json += available;
  json += "\",\"cpu\":\"";
  json += DetectedCpuFeatures();
  json += "\"}";
  return json;
}

}  // namespace entmatcher

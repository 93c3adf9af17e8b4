#include "matching/types.h"

#include <utility>

#include "index/candidate_index.h"

namespace entmatcher {

MatchOptions MakePreset(AlgorithmPreset preset) {
  MatchOptions options;
  options.metric = SimilarityMetric::kCosine;
  switch (preset) {
    case AlgorithmPreset::kDInf:
      options.transform = ScoreTransformKind::kNone;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kCsls:
      options.transform = ScoreTransformKind::kCsls;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kRinf:
      options.transform = ScoreTransformKind::kRinf;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kRinfWr:
      options.transform = ScoreTransformKind::kRinfWr;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kRinfPb:
      options.transform = ScoreTransformKind::kRinfPb;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kSinkhorn:
      options.transform = ScoreTransformKind::kSinkhorn;
      options.matcher = MatcherKind::kGreedy;
      break;
    case AlgorithmPreset::kHungarian:
      options.transform = ScoreTransformKind::kNone;
      options.matcher = MatcherKind::kHungarian;
      break;
    case AlgorithmPreset::kStableMatch:
      options.transform = ScoreTransformKind::kNone;
      options.matcher = MatcherKind::kGaleShapley;
      break;
    case AlgorithmPreset::kRl:
      options.transform = ScoreTransformKind::kNone;
      options.matcher = MatcherKind::kRl;
      break;
  }
  return options;
}

ScoreSignature ScoreSignature::Of(const MatchOptions& options) {
  ScoreSignature sig;
  sig.metric = options.metric;
  sig.transform = options.transform;
  switch (options.transform) {
    case ScoreTransformKind::kNone:
    case ScoreTransformKind::kRinfWr:
      break;
    case ScoreTransformKind::kCsls:
      sig.csls_k = options.csls_k;
      break;
    case ScoreTransformKind::kRinf:
      sig.rinf_k = options.rinf_k;
      break;
    case ScoreTransformKind::kRinfPb:
      sig.rinf_pb_candidates = options.rinf_pb_candidates;
      break;
    case ScoreTransformKind::kSinkhorn:
      sig.sinkhorn_iterations = options.sinkhorn_iterations;
      sig.sinkhorn_temperature = options.sinkhorn_temperature;
      break;
  }
  if (UsesCandidateIndex(options)) {
    sig.candidate_index = options.candidate_index;
    sig.num_candidates = options.num_candidates;
    // Only the knob the backend actually reads shapes coverage; zeroing the
    // other keeps e.g. two HNSW queries with different stray nprobes in one
    // batch.
    switch (options.candidate_index->backend()) {
      case CandidateBackendKind::kIvf:
        sig.index_nprobe = options.index_nprobe;
        break;
      case CandidateBackendKind::kHnsw:
        sig.index_ef = options.index_ef;
        break;
      case CandidateBackendKind::kExact:
        break;
    }
  }
  return sig;
}

// Every preset with its paper display name, in Table 6 order.
constexpr std::pair<AlgorithmPreset, const char*> kPresetNames[] = {
    {AlgorithmPreset::kDInf, "DInf"},
    {AlgorithmPreset::kCsls, "CSLS"},
    {AlgorithmPreset::kRinf, "RInf"},
    {AlgorithmPreset::kRinfWr, "RInf-wr"},
    {AlgorithmPreset::kRinfPb, "RInf-pb"},
    {AlgorithmPreset::kSinkhorn, "Sink."},
    {AlgorithmPreset::kHungarian, "Hun."},
    {AlgorithmPreset::kStableMatch, "SMat"},
    {AlgorithmPreset::kRl, "RL"},
};

const char* PresetName(AlgorithmPreset preset) {
  for (const auto& [each, name] : kPresetNames) {
    if (each == preset) return name;
  }
  return "?";
}

Result<AlgorithmPreset> ParsePreset(std::string_view name) {
  for (const auto& [preset, each] : kPresetNames) {
    if (name == each) return preset;
  }
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

std::vector<AlgorithmPreset> MainPresets() {
  return {AlgorithmPreset::kDInf,     AlgorithmPreset::kCsls,
          AlgorithmPreset::kRinf,     AlgorithmPreset::kSinkhorn,
          AlgorithmPreset::kHungarian, AlgorithmPreset::kStableMatch,
          AlgorithmPreset::kRl};
}

std::vector<AlgorithmPreset> ScalabilityPresets() {
  std::vector<AlgorithmPreset> presets;
  for (const auto& [preset, name] : kPresetNames) presets.push_back(preset);
  return presets;
}

}  // namespace entmatcher

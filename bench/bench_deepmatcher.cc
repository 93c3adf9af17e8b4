// Reproduces the Sec. 4.3 comparison with DL-based entity-matching systems:
// a deepmatcher-style neural pair classifier trained on the seed links with
// 1:10 negative sampling, evaluated by scoring each source entity against a
// top-K candidate block (as EM blocking pipelines do) and taking the argmax.
//
// Expected shape: the classifier fails on EA — "only several entities are
// correctly aligned" — because of scarce labels, extreme class imbalance,
// and the absence of attributive text. DInf on the very same embeddings is
// far stronger.

#include "bench/harness.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "nn/pair_classifier.h"

namespace entmatcher::bench {
namespace {

double ClassifierF1(const KgPairDataset& dataset, const EmbeddingPair& emb,
                    size_t block_width) {
  PairClassifierConfig config;
  config.epochs = 20;
  auto classifier = PairClassifier::Train(
      emb.source, emb.target, dataset.split.train.pairs(),
      dataset.test_target_entities, config);
  if (!classifier.ok()) {
    std::cerr << classifier.status().ToString() << "\n";
    std::abort();
  }

  // Blocking: score only each source's top-K cosine candidates.
  const Matrix src =
      ExtractRows(emb.source, dataset.test_source_entities).value();
  const Matrix tgt =
      ExtractRows(emb.target, dataset.test_target_entities).value();
  auto sim = ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
  if (!sim.ok()) std::abort();
  const size_t k = std::min(block_width, dataset.test_target_entities.size());
  const std::vector<uint32_t> candidates = RowTopKIndices(*sim, k);

  size_t correct = 0;
  for (size_t i = 0; i < dataset.test_source_entities.size(); ++i) {
    float best_score = -1.0f;
    uint32_t best_j = candidates[i * k];
    for (size_t c = 0; c < k; ++c) {
      const uint32_t j = candidates[i * k + c];
      const float score = classifier->Score(
          emb.source, emb.target, dataset.test_source_entities[i],
          dataset.test_target_entities[j]);
      if (score > best_score) {
        best_score = score;
        best_j = j;
      }
    }
    if (dataset.split.test.Contains(dataset.test_source_entities[i],
                                    dataset.test_target_entities[best_j])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.test_source_entities.size());
}

void Run() {
  const double scale = GlobalScale();
  PrintBanner(
      "Sec. 4.3 — deepmatcher-style DL-based EM adapted to EA",
      "Pair classifier (MLP over concatenated pair embeddings, 1:10 negative\n"
      "sampling) vs the DInf baseline on the same embeddings. Expected: the\n"
      "classifier collapses; DInf is far stronger.");

  TablePrinter table(
      {"Pair", "Features", "Classifier F1", "DInf F1 (same emb.)"});
  for (const std::string& pair : {std::string("D-Z"), std::string("S-F")}) {
    KgPairDataset d = MustGenerate(pair, scale);
    for (EmbeddingSetting setting :
         {EmbeddingSetting::kRreaStruct, EmbeddingSetting::kNameOnly}) {
      EmbeddingPair emb = MustEmbed(d, setting);
      const double clf = ClassifierF1(d, emb, /*block_width=*/20);
      ExperimentResult dinf = MustRun(d, emb, AlgorithmPreset::kDInf);
      table.AddRow({pair,
                    setting == EmbeddingSetting::kRreaStruct ? "structural"
                                                             : "name",
                    F3(clf), F3(dinf.metrics.f1)});
    }
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace entmatcher::bench

int main() {
  entmatcher::bench::Run();
  return 0;
}

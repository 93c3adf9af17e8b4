// Empirically validates Table 2's complexity column: times each algorithm on
// random score matrices of doubling size and reports the effective scaling
// exponent log2(T(2n)/T(n)).
//
// Expected: DInf/CSLS/RInf-wr ~ n^2; Sink. ~ l*n^2; Hun. between n^2 and
// n^3 (its augmenting paths are short on random instances; the n^3 bound is
// worst case). RInf/SMat ~ n^2 here, not the paper's n^2 log n: that is the
// comparison-sort bound, and their rank and preference tables are ordered by
// a radix sort (la/ranking.h), O(n) per row; their O(n^2) space is the
// paper's. RL has no closed-form bound (paper: "/") and needs KG context, so
// it is excluded here — its empirical times appear in Tables 6-8.

#include <cmath>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/timer.h"
#include "matching/pipeline.h"

namespace entmatcher::bench {
namespace {

Matrix RandomEmbeddings(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : m.Row(i)) v = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

void Run() {
  PrintBanner("Table 2 (empirical) — time scaling of the matching algorithms",
              "T(n) on random embeddings; exponent = log2(T(2n)/T(n)).\n"
              "Theory: DInf/CSLS O(n^2); RInf/SMat O(n^2 lg n) in the paper,\n"
              "O(n^2) here (radix-ordered rankings); Sink O(l n^2); Hun.\n"
              "O(n^3) worst case. Space is O(n^2) for all.");

  const std::vector<size_t> sizes = {500, 1000, 2000};
  const std::vector<AlgorithmPreset> presets = {
      AlgorithmPreset::kDInf,     AlgorithmPreset::kCsls,
      AlgorithmPreset::kRinf,     AlgorithmPreset::kRinfWr,
      AlgorithmPreset::kSinkhorn, AlgorithmPreset::kHungarian,
      AlgorithmPreset::kStableMatch};

  std::vector<std::string> headers = {"Model"};
  for (size_t n : sizes) headers.push_back("T(n=" + std::to_string(n) + ") s");
  headers.push_back("exponent");
  headers.push_back("theory");
  TablePrinter table(headers);

  const std::map<AlgorithmPreset, std::string> theory = {
      {AlgorithmPreset::kDInf, "O(n^2)"},
      {AlgorithmPreset::kCsls, "O(n^2)"},
      {AlgorithmPreset::kRinf, "O(n^2); paper O(n^2 lg n)"},
      {AlgorithmPreset::kRinfWr, "O(n^2)"},
      {AlgorithmPreset::kSinkhorn, "O(l n^2)"},
      {AlgorithmPreset::kHungarian, "O(n^3)"},
      {AlgorithmPreset::kStableMatch, "O(n^2); paper O(n^2 lg n)"},
  };

  for (AlgorithmPreset preset : presets) {
    std::vector<std::string> row = {PresetName(preset)};
    std::vector<double> times;
    for (size_t n : sizes) {
      const Matrix src = RandomEmbeddings(n, 64, 1);
      const Matrix tgt = RandomEmbeddings(n, 64, 2);
      Timer timer;
      auto a = MatchEmbeddings(src, tgt, MakePreset(preset));
      const double seconds = timer.ElapsedSeconds();
      if (!a.ok()) {
        std::cerr << a.status().ToString() << "\n";
        std::abort();
      }
      times.push_back(seconds);
      row.push_back(FormatDouble(seconds, 3));
    }
    // Mean exponent over the successive doublings.
    double exponent = 0.0;
    size_t steps = 0;
    for (size_t i = 1; i < times.size(); ++i) {
      if (times[i - 1] > 1e-6) {
        exponent += std::log2(times[i] / times[i - 1]);
        ++steps;
      }
    }
    row.push_back(steps > 0 ? FormatDouble(exponent / steps, 2) : "-");
    row.push_back(theory.at(preset));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nRL: no closed-form complexity (neural policy, paper Table 2 "
               "reports '/'); see Tables 6-8 for its empirical costs.\n";
}

}  // namespace
}  // namespace entmatcher::bench

int main() {
  entmatcher::bench::Run();
  return 0;
}

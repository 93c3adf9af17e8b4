#ifndef ENTMATCHER_NN_MLP_H_
#define ENTMATCHER_NN_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace entmatcher {

/// Configuration of a small fully-connected network.
struct MlpConfig {
  /// Layer widths, input first, output last; at least {in, out}.
  std::vector<size_t> layer_sizes;
  /// Weight-init seed.
  uint64_t seed = 1;
  /// SGD learning rate.
  double learning_rate = 0.01;
};

/// A minimal multilayer perceptron (ReLU hidden layers, linear output) with
/// single-sample forward/backward and SGD updates.
///
/// This is the neural substrate for (a) the RL-based matcher's policy network
/// and (b) the deepmatcher-style pair classifier of Sec. 4.3. The workloads
/// are tiny (tens of inputs, one output), so a simple per-sample
/// implementation is sufficient and keeps the code auditable.
class Mlp {
 public:
  /// Builds a network; fails if fewer than two layer sizes or a zero width.
  static Result<Mlp> Create(const MlpConfig& config);

  size_t input_dim() const { return layer_sizes_.front(); }
  size_t output_dim() const { return layer_sizes_.back(); }

  /// Computes the network output; caches activations for Backward().
  /// `input.size()` must equal input_dim().
  std::vector<float> Forward(std::span<const float> input);

  /// Accumulates gradients for the most recent Forward() call, given
  /// dLoss/dOutput. Must be preceded by Forward().
  void Backward(std::span<const float> grad_output);

  /// SGD step: params -= learning_rate * scale * grad; then clears grads.
  void ApplyGradients(double scale = 1.0);

  /// Clears accumulated gradients.
  void ZeroGradients();

 private:
  Mlp() = default;

  std::vector<size_t> layer_sizes_;
  double learning_rate_ = 0.01;
  // weights_[l] is (out × in) row-major; biases_[l] is (out).
  std::vector<std::vector<float>> weights_;
  std::vector<std::vector<float>> biases_;
  std::vector<std::vector<float>> grad_weights_;
  std::vector<std::vector<float>> grad_biases_;
  // activations_[0] = input; activations_[l+1] = output of layer l (after
  // ReLU for hidden layers).
  std::vector<std::vector<float>> activations_;
  // Pre-activation values per layer (for the ReLU derivative).
  std::vector<std::vector<float>> pre_activations_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_NN_MLP_H_

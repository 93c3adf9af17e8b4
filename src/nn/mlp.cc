#include "nn/mlp.h"

#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace entmatcher {

Result<Mlp> Mlp::Create(const MlpConfig& config) {
  if (config.layer_sizes.size() < 2) {
    return Status::InvalidArgument("Mlp requires at least input and output sizes");
  }
  for (size_t s : config.layer_sizes) {
    if (s == 0) return Status::InvalidArgument("Mlp layer width must be > 0");
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("Mlp learning rate must be > 0");
  }

  Mlp mlp;
  mlp.layer_sizes_ = config.layer_sizes;
  mlp.learning_rate_ = config.learning_rate;

  Rng rng(config.seed);
  const size_t num_layers = config.layer_sizes.size() - 1;
  mlp.weights_.resize(num_layers);
  mlp.biases_.resize(num_layers);
  mlp.grad_weights_.resize(num_layers);
  mlp.grad_biases_.resize(num_layers);
  mlp.activations_.resize(num_layers + 1);
  mlp.pre_activations_.resize(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    const size_t in = config.layer_sizes[l];
    const size_t out = config.layer_sizes[l + 1];
    // He initialization for ReLU layers.
    const double stddev = std::sqrt(2.0 / static_cast<double>(in));
    mlp.weights_[l].resize(in * out);
    for (float& w : mlp.weights_[l]) {
      w = static_cast<float>(rng.NextGaussian(0.0, stddev));
    }
    mlp.biases_[l].assign(out, 0.0f);
    mlp.grad_weights_[l].assign(in * out, 0.0f);
    mlp.grad_biases_[l].assign(out, 0.0f);
    mlp.pre_activations_[l].assign(out, 0.0f);
    mlp.activations_[l + 1].assign(out, 0.0f);
  }
  return mlp;
}

std::vector<float> Mlp::Forward(std::span<const float> input) {
  assert(input.size() == input_dim());
  activations_[0].assign(input.begin(), input.end());
  const size_t num_layers = weights_.size();
  for (size_t l = 0; l < num_layers; ++l) {
    const size_t in = layer_sizes_[l];
    const size_t out = layer_sizes_[l + 1];
    const std::vector<float>& x = activations_[l];
    const bool is_output = (l + 1 == num_layers);
    for (size_t o = 0; o < out; ++o) {
      const float* wrow = weights_[l].data() + o * in;
      float acc = biases_[l][o];
      for (size_t i = 0; i < in; ++i) acc += wrow[i] * x[i];
      pre_activations_[l][o] = acc;
      activations_[l + 1][o] = is_output ? acc : (acc > 0.0f ? acc : 0.0f);
    }
  }
  return activations_.back();
}

void Mlp::Backward(std::span<const float> grad_output) {
  assert(grad_output.size() == output_dim());
  const size_t num_layers = weights_.size();
  std::vector<float> grad(grad_output.begin(), grad_output.end());
  for (size_t li = num_layers; li-- > 0;) {
    const size_t in = layer_sizes_[li];
    const size_t out = layer_sizes_[li + 1];
    const bool is_output = (li + 1 == num_layers);
    // ReLU derivative for hidden layers.
    if (!is_output) {
      for (size_t o = 0; o < out; ++o) {
        if (pre_activations_[li][o] <= 0.0f) grad[o] = 0.0f;
      }
    }
    const std::vector<float>& x = activations_[li];
    std::vector<float> grad_in(in, 0.0f);
    for (size_t o = 0; o < out; ++o) {
      const float g = grad[o];
      if (g == 0.0f) continue;
      float* gw = grad_weights_[li].data() + o * in;
      const float* w = weights_[li].data() + o * in;
      for (size_t i = 0; i < in; ++i) {
        gw[i] += g * x[i];
        grad_in[i] += g * w[i];
      }
      grad_biases_[li][o] += g;
    }
    grad = std::move(grad_in);
  }
}

void Mlp::ApplyGradients(double scale) {
  const float step = static_cast<float>(learning_rate_ * scale);
  for (size_t l = 0; l < weights_.size(); ++l) {
    for (size_t i = 0; i < weights_[l].size(); ++i) {
      weights_[l][i] -= step * grad_weights_[l][i];
    }
    for (size_t i = 0; i < biases_[l].size(); ++i) {
      biases_[l][i] -= step * grad_biases_[l][i];
    }
  }
  ZeroGradients();
}

void Mlp::ZeroGradients() {
  for (auto& g : grad_weights_) std::fill(g.begin(), g.end(), 0.0f);
  for (auto& g : grad_biases_) std::fill(g.begin(), g.end(), 0.0f);
}

}  // namespace entmatcher

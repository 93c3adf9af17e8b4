#include "nn/mlp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace entmatcher {
namespace {

TEST(MlpTest, CreateValidation) {
  MlpConfig c;
  c.layer_sizes = {4};
  EXPECT_FALSE(Mlp::Create(c).ok());
  c.layer_sizes = {4, 0, 1};
  EXPECT_FALSE(Mlp::Create(c).ok());
  c.layer_sizes = {4, 8, 1};
  c.learning_rate = 0.0;
  EXPECT_FALSE(Mlp::Create(c).ok());
  c.learning_rate = 0.01;
  EXPECT_TRUE(Mlp::Create(c).ok());
}

TEST(MlpTest, DimsAndParamCount) {
  MlpConfig c;
  c.layer_sizes = {3, 5, 2};
  auto mlp = Mlp::Create(c);
  ASSERT_TRUE(mlp.ok());
  EXPECT_EQ(mlp->input_dim(), 3u);
  EXPECT_EQ(mlp->output_dim(), 2u);
  // A weight per (in, out) pair plus a bias per out unit, per layer:
  // (3*5 + 5) + (5*2 + 2) = 32.
  size_t params = 0;
  for (size_t l = 0; l + 1 < c.layer_sizes.size(); ++l) {
    params += (c.layer_sizes[l] + 1) * c.layer_sizes[l + 1];
  }
  EXPECT_EQ(params, 32u);
}

TEST(MlpTest, ForwardDeterministicAndSeedDependent) {
  MlpConfig c;
  c.layer_sizes = {2, 4, 1};
  c.seed = 5;
  auto a = Mlp::Create(c);
  auto b = Mlp::Create(c);
  c.seed = 6;
  auto other = Mlp::Create(c);
  ASSERT_TRUE(a.ok() && b.ok() && other.ok());
  const std::vector<float> x = {0.5f, -1.0f};
  EXPECT_EQ(a->Forward(x)[0], b->Forward(x)[0]);
  EXPECT_NE(a->Forward(x)[0], other->Forward(x)[0]);
}

// Numeric gradient check: backprop gradients must match finite differences
// of the loss L = 0.5 * sum(output^2) (whose dL/doutput = output).
TEST(MlpTest, GradientMatchesFiniteDifference) {
  MlpConfig c;
  c.layer_sizes = {3, 4, 2};
  c.seed = 11;
  c.learning_rate = 1.0;  // ApplyGradients(h) steps exactly h * grad
  auto mlp_result = Mlp::Create(c);
  ASSERT_TRUE(mlp_result.ok());
  Mlp mlp = std::move(mlp_result).value();

  const std::vector<float> x = {0.4f, -0.2f, 0.9f};
  auto loss = [&](Mlp& m) {
    const auto out = m.Forward(x);
    double l = 0.0;
    for (float v : out) l += 0.5 * v * v;
    return l;
  };

  // Analytic directional derivative: run forward/backward, then step with a
  // small scale and compare the loss change.
  const double l0 = loss(mlp);
  const auto out = mlp.Forward(x);
  mlp.Backward(out);  // dL/doutput = output

  // Taking a gradient step of size h must reduce the loss by approximately
  // h * ||grad||^2 (first-order Taylor), hence strictly reduce it.
  const double h = 1e-3;
  Mlp stepped = mlp;  // copy with accumulated grads
  stepped.ApplyGradients(h);
  const double l1 = loss(stepped);
  EXPECT_LT(l1, l0);
  // And the reduction should be small (first-order step).
  EXPECT_NEAR(l1, l0, 0.5 * l0 + 1e-3);
}

TEST(MlpTest, ZeroGradientsMakesApplyANoop) {
  MlpConfig c;
  c.layer_sizes = {2, 3, 1};
  auto mlp = Mlp::Create(c);
  ASSERT_TRUE(mlp.ok());
  const std::vector<float> x = {1.0f, 2.0f};
  const float before = mlp->Forward(x)[0];
  const float g = 1.0f;
  mlp->Backward(std::span<const float>(&g, 1));
  mlp->ZeroGradients();
  mlp->ApplyGradients();
  EXPECT_EQ(mlp->Forward(x)[0], before);
}

TEST(MlpTest, ApplyGradientsClearsAccumulators) {
  MlpConfig c;
  c.layer_sizes = {2, 3, 1};
  auto mlp = Mlp::Create(c);
  ASSERT_TRUE(mlp.ok());
  const std::vector<float> x = {1.0f, -1.0f};
  mlp->Forward(x);
  const float g = 0.5f;
  mlp->Backward(std::span<const float>(&g, 1));
  mlp->ApplyGradients();
  const float after_first = mlp->Forward(x)[0];
  // Applying again without new Backward must not change anything.
  mlp->ApplyGradients();
  EXPECT_EQ(mlp->Forward(x)[0], after_first);
}

// Trains a tiny regression problem: y = 2*a - b.
TEST(MlpTest, LearnsLinearFunction) {
  MlpConfig c;
  c.layer_sizes = {2, 8, 1};
  c.seed = 3;
  c.learning_rate = 0.02;
  auto mlp_result = Mlp::Create(c);
  ASSERT_TRUE(mlp_result.ok());
  Mlp mlp = std::move(mlp_result).value();

  Rng rng(4);
  for (int step = 0; step < 4000; ++step) {
    const float a = static_cast<float>(rng.NextUniform(-1, 1));
    const float b = static_cast<float>(rng.NextUniform(-1, 1));
    const float target = 2.0f * a - b;
    const std::vector<float> x = {a, b};
    const float pred = mlp.Forward(x)[0];
    const float grad = pred - target;  // d(0.5*(pred-target)^2)/dpred
    mlp.Backward(std::span<const float>(&grad, 1));
    mlp.ApplyGradients();
  }
  double mse = 0.0;
  Rng eval_rng(5);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const float a = static_cast<float>(eval_rng.NextUniform(-1, 1));
    const float b = static_cast<float>(eval_rng.NextUniform(-1, 1));
    const float target = 2.0f * a - b;
    const std::vector<float> x = {a, b};
    const float pred = mlp.Forward(x)[0];
    mse += (pred - target) * (pred - target);
  }
  EXPECT_LT(mse / n, 0.02);
}

// XOR is not linearly separable: verifies the hidden layer works.
TEST(MlpTest, LearnsXor) {
  MlpConfig c;
  c.layer_sizes = {2, 8, 1};
  c.seed = 9;
  c.learning_rate = 0.05;
  auto mlp_result = Mlp::Create(c);
  ASSERT_TRUE(mlp_result.ok());
  Mlp mlp = std::move(mlp_result).value();

  const std::vector<std::vector<float>> inputs = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<float> labels = {0, 1, 1, 0};
  Rng rng(10);
  for (int step = 0; step < 8000; ++step) {
    const size_t i = rng.NextBounded(4);
    const float logit = mlp.Forward(inputs[i])[0];
    const float prob = 1.0f / (1.0f + std::exp(-logit));
    const float grad = prob - labels[i];
    mlp.Backward(std::span<const float>(&grad, 1));
    mlp.ApplyGradients();
  }
  for (size_t i = 0; i < 4; ++i) {
    const float logit = mlp.Forward(inputs[i])[0];
    const float prob = 1.0f / (1.0f + std::exp(-logit));
    EXPECT_NEAR(prob, labels[i], 0.35) << "case " << i;
  }
}

}  // namespace
}  // namespace entmatcher

// Convolution ops: forward correctness, first/second-order gradients versus
// finite differences, and the CNN module end-to-end (including the exact
// second-order MAML meta-gradient through a convolution).

#include <gtest/gtest.h>

#include <ostream>

#include "autodiff/ops.h"
#include "autodiff/var.h"
#include "core/meta.h"
#include "nn/module.h"
#include "nn/params.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace fedml::autodiff {
namespace {

namespace ops = fedml::autodiff::ops;
using tensor::Tensor;

TEST(Conv2d, ForwardMatchesHandComputation) {
  // One 3×3 image, 2×2 kernel.
  const Tensor img{{1, 2, 3, 4, 5, 6, 7, 8, 9}};  // row-major 3×3
  const Tensor k{{1, 0}, {0, -1}};
  const Var y = ops::conv2d_valid(ops::constant(img), ops::constant(k), 3, 3);
  // out[i,j] = x[i,j] − x[i+1,j+1]
  EXPECT_DOUBLE_EQ(y.value()(0, 0), 1 - 5);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 2 - 6);
  EXPECT_DOUBLE_EQ(y.value()(0, 2), 4 - 8);
  EXPECT_DOUBLE_EQ(y.value()(0, 3), 5 - 9);
}

TEST(Conv2d, IdentityKernelIsCrop) {
  util::Rng rng(1);
  const Tensor img = Tensor::randn(2, 16, rng);  // two 4×4 images
  const Var y = ops::conv2d_valid(ops::constant(img),
                                  ops::constant(Tensor{{1.0}}), 4, 4);
  EXPECT_TRUE(tensor::allclose(y.value(), img));
}

TEST(Conv2d, ShapeChecksFire) {
  const Var x = ops::constant(Tensor(1, 9));
  EXPECT_THROW(ops::conv2d_valid(x, ops::constant(Tensor(2, 3)), 3, 3),
               util::Error);  // non-square kernel
  EXPECT_THROW(ops::conv2d_valid(x, ops::constant(Tensor(4, 4)), 3, 3),
               util::Error);  // kernel larger than image
  EXPECT_THROW(ops::conv2d_valid(x, ops::constant(Tensor{{1.0}}), 4, 4),
               util::Error);  // h*w mismatch
}

TEST(Conv2d, PadCropFlipRoundTrips) {
  util::Rng rng(2);
  const Tensor img = Tensor::randn(3, 9, rng);
  const Var x = ops::constant(img);
  const Var padded = ops::pad2d(x, 3, 3, 2);
  EXPECT_EQ(padded.cols(), 7u * 7u);
  const Var back = ops::crop2d(padded, 7, 7, 2);
  EXPECT_TRUE(tensor::allclose(back.value(), img));
  const Var flipped = ops::flip2d(ops::flip2d(x, 3, 3), 3, 3);
  EXPECT_TRUE(tensor::allclose(flipped.value(), img));
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  const Tensor x0 = Tensor::randn(2, 16, rng);   // two 4×4 images
  const Tensor k0 = Tensor::randn(3, 3, rng, 0.0, 0.5);

  const auto loss = [&](const Tensor& xv, const Tensor& kv) {
    const Var y = ops::conv2d_valid(Var(xv), Var(kv), 4, 4);
    return ops::sum(ops::square(y)).item();
  };

  Var x(x0, true), k(k0, true);
  const Var y = ops::conv2d_valid(x, k, 4, 4);
  const auto grads = grad(ops::sum(ops::square(y)), {x, k});

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x0.rows(); ++i)
    for (std::size_t j = 0; j < x0.cols(); ++j) {
      Tensor p = x0, m = x0;
      p(i, j) += eps;
      m(i, j) -= eps;
      EXPECT_NEAR(grads[0].value()(i, j), (loss(p, k0) - loss(m, k0)) / (2 * eps),
                  1e-4);
    }
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      Tensor p = k0, m = k0;
      p(i, j) += eps;
      m(i, j) -= eps;
      EXPECT_NEAR(grads[1].value()(i, j), (loss(x0, p) - loss(x0, m)) / (2 * eps),
                  1e-4);
    }
}

TEST(Conv2d, SecondOrderHvpMatchesFiniteDifferenceOfGradient) {
  util::Rng rng(4);
  const Tensor x0 = Tensor::randn(2, 9, rng);
  const Tensor k0 = Tensor::randn(2, 2, rng, 0.0, 0.5);
  const Tensor v = Tensor::randn(2, 2, rng);

  const auto f = [&](const Var& kernel) {
    const Var y = ops::conv2d_valid(ops::constant(x0), kernel, 3, 3);
    return ops::sum(ops::square(ops::tanh(y)));
  };

  Var k(k0, true);
  const Var g = grad(f(k), {k}, {.create_graph = true})[0];
  const Var hv = grad(ops::dot(g, ops::constant(v)), {k})[0];

  const double eps = 1e-5;
  const auto grad_at = [&](const Tensor& kv) {
    Var kk(kv, true);
    return grad(f(kk), {kk})[0].value();
  };
  const Tensor num = (grad_at(k0 + v * eps) - grad_at(k0 - v * eps)) *
                     (1.0 / (2 * eps));
  EXPECT_LT(tensor::max_abs_diff(hv.value(), num), 1e-4);
}

TEST(CnnModule, ShapesAndForward) {
  const auto cnn = nn::make_cnn(6, 3, 4, /*filters=*/2);
  // 2 conv kernels (3×3) + 2 scalar biases + Linear(2·16 → 4) + bias.
  EXPECT_EQ(cnn->num_scalars(), 2u * 9 + 2 + 32u * 4 + 4);
  util::Rng rng(5);
  const auto p = cnn->init_params(rng);
  const Var y = cnn->forward(p, ops::constant(Tensor::randn(3, 36, rng)));
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 4u);
}

TEST(CnnModule, MetaGradientMatchesFiniteDifferences) {
  const auto cnn = nn::make_cnn(4, 2, 3, /*filters=*/2);
  util::Rng rng(6);
  const auto theta = cnn->init_params(rng);
  data::Dataset train, test;
  train.x = Tensor::randn(4, 16, rng);
  train.y = {0, 1, 2, 0};
  test.x = Tensor::randn(5, 16, rng);
  test.y = {2, 1, 0, 1, 2};
  const double alpha = 0.05;

  const auto g = core::meta_gradient(*cnn, theta, train, test, alpha);
  const auto num = fedml::testing::numerical_gradient(
      [&](const nn::ParamList& p) {
        return core::meta_loss(*cnn, p, train, test, alpha);
      },
      theta);
  EXPECT_LT(fedml::testing::max_param_diff(num, g), 1e-5);
}

TEST(CnnModule, TrainsOnToyImages) {
  // Two classes: bright top-left corner vs bright bottom-right corner.
  util::Rng rng(7);
  data::Dataset d;
  d.x = Tensor(40, 16);
  d.y.resize(40);
  for (std::size_t s = 0; s < 40; ++s) {
    const bool cls = s % 2 == 0;
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) {
        const double base = cls ? (i < 2 && j < 2 ? 1.0 : 0.0)
                                : (i >= 2 && j >= 2 ? 1.0 : 0.0);
        d.x(s, i * 4 + j) = base + rng.normal(0.0, 0.1);
      }
    d.y[s] = cls ? 0 : 1;
  }
  const auto cnn = nn::make_cnn(4, 2, 2, /*filters=*/2);
  auto theta = cnn->init_params(rng);
  for (int step = 0; step < 150; ++step) {
    const auto g = core::loss_gradient(*cnn, theta, d);
    theta = nn::sgd_step_leaf(theta, g, 0.2);
  }
  EXPECT_GT(core::empirical_accuracy(*cnn, theta, d), 0.95);
}

// Parameterized size sweep: kernel gradients must match finite differences
// for every (image, kernel) geometry, including edge cases k = 1 and k = h.
struct ConvGeometry {
  std::size_t h, w, k, batch;
};

void PrintTo(const ConvGeometry& g, std::ostream* os) {
  *os << 'h' << g.h << 'w' << g.w << 'k' << g.k << 'b' << g.batch;
}

class ConvGradSweep : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(ConvGradSweep, KernelGradientMatchesFiniteDifferences) {
  const auto geo = GetParam();
  util::Rng rng(geo.h * 100 + geo.w * 10 + geo.k);
  const Tensor x0 = Tensor::randn(geo.batch, geo.h * geo.w, rng);
  const Tensor k0 = Tensor::randn(geo.k, geo.k, rng, 0.0, 0.5);

  const auto loss = [&](const Tensor& kv) {
    const Var y = ops::conv2d_valid(ops::constant(x0), Var(kv), geo.h, geo.w);
    return ops::sum(ops::square(y)).item();
  };

  Var k(k0, true);
  const Var y = ops::conv2d_valid(ops::constant(x0), k, geo.h, geo.w);
  const Var g = grad(ops::sum(ops::square(y)), {k})[0];

  const double eps = 1e-6;
  for (std::size_t i = 0; i < geo.k; ++i)
    for (std::size_t j = 0; j < geo.k; ++j) {
      Tensor p = k0, m = k0;
      p(i, j) += eps;
      m(i, j) -= eps;
      EXPECT_NEAR(g.value()(i, j), (loss(p) - loss(m)) / (2 * eps), 1e-4)
          << "h=" << geo.h << " w=" << geo.w << " k=" << geo.k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradSweep,
    ::testing::Values(ConvGeometry{3, 3, 1, 2}, ConvGeometry{3, 3, 3, 1},
                      ConvGeometry{4, 4, 2, 3}, ConvGeometry{5, 5, 3, 2},
                      ConvGeometry{5, 4, 2, 2}, ConvGeometry{6, 6, 4, 1}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace fedml::autodiff

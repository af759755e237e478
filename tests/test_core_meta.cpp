#include "core/meta.h"

#include <gtest/gtest.h>

#include "autodiff/var.h"
#include "data/synthetic.h"
#include "nn/params.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedml::core {
namespace {

using tensor::Tensor;

data::Dataset toy_task(std::size_t n, std::size_t d, std::size_t classes,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset ds;
  ds.x = Tensor::randn(n, d, rng);
  ds.y.resize(n);
  for (auto& y : ds.y)
    y = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(classes) - 1));
  return ds;
}

TEST(Meta, EmpiricalLossMatchesDirectEvaluation) {
  const auto model = nn::make_softmax_regression(4, 3);
  util::Rng rng(1);
  const auto theta = model->init_params(rng);
  const auto d = toy_task(8, 4, 3, 2);
  const double l1 = empirical_loss(*model, theta, d);
  const double l2 = empirical_loss(*model, theta, d);
  EXPECT_DOUBLE_EQ(l1, l2);
  EXPECT_GT(l1, 0.0);
}

TEST(Meta, AccuracyOfPerfectModelIsOne) {
  // Construct a linear model that maps one-hot-ish inputs to themselves.
  const auto model = nn::make_softmax_regression(3, 3);
  nn::ParamList theta;
  theta.emplace_back(Tensor::identity(3) * 10.0, false);
  theta.emplace_back(Tensor::zeros(1, 3), false);
  data::Dataset d;
  d.x = Tensor::identity(3);
  d.y = {0, 1, 2};
  EXPECT_DOUBLE_EQ(empirical_accuracy(*model, theta, d), 1.0);
}

TEST(Meta, LossGradientMatchesFiniteDifferences) {
  const auto model = nn::make_mlp(3, {4}, 2);
  util::Rng rng(3);
  const auto theta = model->init_params(rng);
  const auto d = toy_task(6, 3, 2, 4);
  const auto g = loss_gradient(*model, theta, d);
  const auto num = testing::numerical_gradient(
      [&](const nn::ParamList& p) { return empirical_loss(*model, p, d); },
      theta);
  EXPECT_LT(testing::max_param_diff(num, g), 1e-5);
}

TEST(Meta, AdaptReducesLoss) {
  const auto model = nn::make_softmax_regression(5, 3);
  util::Rng rng(5);
  const auto theta = model->init_params(rng);
  const auto d = toy_task(20, 5, 3, 6);
  const double before = empirical_loss(*model, theta, d);
  const auto phi = adapt(*model, theta, d, 0.5, 10);
  EXPECT_LT(empirical_loss(*model, phi, d), before);
}

TEST(Meta, AdaptZeroStepsIsIdentity) {
  const auto model = nn::make_softmax_regression(3, 2);
  util::Rng rng(5);
  const auto theta = model->init_params(rng);
  const auto phi = adapt(*model, theta, toy_task(5, 3, 2, 1), 0.1, 0);
  EXPECT_DOUBLE_EQ(nn::param_distance(theta, phi), 0.0);
}

// THE key correctness property of this reproduction: the second-order
// meta-gradient computed by double backward equals the numerical gradient of
// the meta-loss θ ↦ L(φ(θ), D_test).
TEST(Meta, SecondOrderMetaGradientMatchesFiniteDifferences) {
  const auto model = nn::make_softmax_regression(4, 3);
  util::Rng rng(7);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 4, 3, 8);
  const auto test = toy_task(7, 4, 3, 9);
  const double alpha = 0.1;

  const auto g = meta_gradient(*model, theta, train, test, alpha,
                               MetaOrder::kSecondOrder);
  const auto num = testing::numerical_gradient(
      [&](const nn::ParamList& p) {
        return meta_loss(*model, p, train, test, alpha);
      },
      theta);
  EXPECT_LT(testing::max_param_diff(num, g), 1e-5);
}

TEST(Meta, SecondOrderMetaGradientMatchesOnMlp) {
  const auto model = nn::make_mlp(3, {4}, 2);
  util::Rng rng(17);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 3, 2, 18);
  const auto test = toy_task(6, 3, 2, 19);
  const double alpha = 0.05;

  const auto g = meta_gradient(*model, theta, train, test, alpha,
                               MetaOrder::kSecondOrder);
  const auto num = testing::numerical_gradient(
      [&](const nn::ParamList& p) {
        return meta_loss(*model, p, train, test, alpha);
      },
      theta);
  EXPECT_LT(testing::max_param_diff(num, g), 1e-5);
}

TEST(Meta, FirstOrderDiffersFromSecondOrder) {
  const auto model = nn::make_softmax_regression(4, 3);
  util::Rng rng(11);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 4, 3, 12);
  const auto test = toy_task(7, 4, 3, 13);
  // Large α exaggerates the curvature correction term.
  const auto g2 =
      meta_gradient(*model, theta, train, test, 0.8, MetaOrder::kSecondOrder);
  const auto g1 =
      meta_gradient(*model, theta, train, test, 0.8, MetaOrder::kFirstOrder);
  double diff = 0.0;
  for (std::size_t k = 0; k < g1.size(); ++k)
    diff = std::max(diff, tensor::max_abs_diff(g1[k].value(), g2[k].value()));
  EXPECT_GT(diff, 1e-6);
}

TEST(Meta, FirstOrderEqualsGradientAtPhi) {
  // FOMAML's meta-gradient is exactly ∇L_test evaluated at φ.
  const auto model = nn::make_softmax_regression(3, 2);
  util::Rng rng(21);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 3, 2, 22);
  const auto test = toy_task(6, 3, 2, 23);
  const double alpha = 0.3;
  const auto g1 =
      meta_gradient(*model, theta, train, test, alpha, MetaOrder::kFirstOrder);
  const auto phi = adapt(*model, theta, train, alpha, 1);
  const auto expected = loss_gradient(*model, phi, test);
  EXPECT_LT(testing::max_param_diff(
                {expected[0].value(), expected[1].value()}, g1),
            1e-10);
}

TEST(Meta, MultipleTestSetsSumLosses) {
  const auto model = nn::make_softmax_regression(3, 2);
  util::Rng rng(31);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 3, 2, 32);
  const auto t1 = toy_task(6, 3, 2, 33);
  const auto t2 = toy_task(4, 3, 2, 34);
  const auto g12 = meta_gradient(*model, theta, train, {&t1, &t2}, 0.1);
  const auto ga = meta_gradient(*model, theta, train, t1, 0.1);
  const auto gb = meta_gradient(*model, theta, train, t2, 0.1);
  for (std::size_t k = 0; k < g12.size(); ++k) {
    EXPECT_TRUE(tensor::allclose(g12[k].value(),
                                 ga[k].value() + gb[k].value(), 1e-9, 1e-11));
  }
}

TEST(Meta, MetaGradientRejectsEmptyTestSets) {
  const auto model = nn::make_softmax_regression(3, 2);
  util::Rng rng(41);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(5, 3, 2, 42);
  EXPECT_THROW(meta_gradient(*model, theta, train,
                             std::vector<const data::Dataset*>{}, 0.1),
               util::Error);
  EXPECT_THROW(meta_gradient(*model, theta, train,
                             std::vector<const data::Dataset*>{nullptr}, 0.1),
               util::Error);
}

TEST(Meta, MetaLossDecreasesAlongMetaGradient) {
  const auto model = nn::make_softmax_regression(4, 3);
  util::Rng rng(51);
  auto theta = model->init_params(rng);
  const auto train = toy_task(6, 4, 3, 52);
  const auto test = toy_task(8, 4, 3, 53);
  const double alpha = 0.1;
  const double before = meta_loss(*model, theta, train, test, alpha);
  const auto g = meta_gradient(*model, theta, train, test, alpha);
  theta = nn::sgd_step_leaf(theta, g, 0.05);
  EXPECT_LT(meta_loss(*model, theta, train, test, alpha), before);
}

// Every result is a plain leaf with no edge back into the tape that made
// it, so a caller holding a gradient or an adapted model keeps no graph
// alive and cannot differentiate through it by accident.
TEST(Meta, ResultsHoldNoTape) {
  const auto model = nn::make_mlp(3, {4}, 2);
  util::Rng rng(61);
  const auto theta = model->init_params(rng);
  const auto train = toy_task(6, 3, 2, 62);
  const auto test = toy_task(6, 3, 2, 63);
  const auto expect_leaves = [&](const nn::ParamList& result, const char* what) {
    ASSERT_EQ(result.size(), theta.size()) << what;
    for (const auto& p : result) {
      EXPECT_FALSE(p.requires_grad()) << what;
      EXPECT_TRUE(p.node()->edges.empty()) << what;
    }
  };
  expect_leaves(meta_gradient(*model, theta, train, test, 0.1, MetaOrder::kSecondOrder),
                "meta_gradient, second order");
  expect_leaves(meta_gradient(*model, theta, train, test, 0.1, MetaOrder::kFirstOrder),
                "meta_gradient, first order");
  expect_leaves(meta_gradient_multistep(*model, theta, train, {&test}, 0.1, 2),
                "meta_gradient_multistep");
  expect_leaves(loss_gradient(*model, theta, train), "loss_gradient");
  expect_leaves(adapt(*model, theta, train, 0.1, 2), "adapt");
}

}  // namespace
}  // namespace fedml::core

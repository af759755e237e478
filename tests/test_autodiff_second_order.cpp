#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/ops.h"
#include "autodiff/var.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedml::autodiff {
namespace {

namespace ops = fedml::autodiff::ops;
using tensor::Tensor;

// Analytic sanity: f(x) = x³ → f' = 3x², f'' = 6x.
TEST(SecondOrder, CubeScalar) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::mul(ops::mul(x, x), x);
  const Var g = grad(y, {x}, {.create_graph = true})[0];
  EXPECT_NEAR(g.item(), 12.0, 1e-12);
  const Var gg = grad(ops::sum(g), {x})[0];
  EXPECT_NEAR(gg.item(), 12.0, 1e-12);  // d(3x²)/dx = 6x = 12

  // The other association, first order only: d(x·x²)/dx = 3x² = 27 at x = 3.
  Var x3(Tensor{{3.0}}, true);
  EXPECT_NEAR(grad(ops::mul(x3, ops::mul(x3, x3)), {x3})[0].item(), 27.0, 1e-12);
}

TEST(SecondOrder, ExpHasAllDerivativesEqual) {
  Var x(Tensor{{0.7}}, true);
  const Var y = ops::exp(x);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x}, {.create_graph = true})[0];
  const Var g3 = grad(ops::sum(g2), {x})[0];
  const double e = std::exp(0.7);
  EXPECT_NEAR(g1.item(), e, 1e-12);
  EXPECT_NEAR(g2.item(), e, 1e-12);
  EXPECT_NEAR(g3.item(), e, 1e-12);  // third derivative, triple backward
}

TEST(SecondOrder, LogDerivatives) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::log(x);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  EXPECT_NEAR(g1.item(), 0.5, 1e-12);
  EXPECT_NEAR(g2.item(), -0.25, 1e-12);
}

TEST(SecondOrder, SigmoidSecondDerivative) {
  const double x0 = 0.3;
  Var x(Tensor{{x0}}, true);
  const Var y = ops::sigmoid(x);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  const double s = 1.0 / (1.0 + std::exp(-x0));
  EXPECT_NEAR(g1.item(), s * (1 - s), 1e-12);
  EXPECT_NEAR(g2.item(), s * (1 - s) * (1 - 2 * s), 1e-12);
}

TEST(SecondOrder, TanhSecondDerivative) {
  const double x0 = -0.4;
  Var x(Tensor{{x0}}, true);
  const Var y = ops::tanh(x);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  const double t = std::tanh(x0);
  EXPECT_NEAR(g1.item(), 1 - t * t, 1e-12);
  EXPECT_NEAR(g2.item(), -2 * t * (1 - t * t), 1e-12);
}

// Hessian-vector product of a known quadratic: f(x) = ½ xᵀ A x
// → ∇f = Ax, ∇²f·v = Av.
TEST(SecondOrder, HessianVectorProductOfQuadratic) {
  const Tensor a{{2.0, 0.5, 0.0}, {0.5, 3.0, -1.0}, {0.0, -1.0, 4.0}};  // symmetric
  util::Rng rng(3);
  const Tensor x0 = Tensor::randn(3, 1, rng);
  const Tensor v0 = Tensor::randn(3, 1, rng);

  Var x(x0, true);
  const Var ax = ops::matmul(ops::constant(a), x);
  const Var f = ops::smul(ops::dot(x, ax), 0.5);
  const Var g = grad(f, {x}, {.create_graph = true})[0];
  // gᵀv is scalar; its gradient wrt x is ∇²f · v.
  const Var gv = ops::dot(g, ops::constant(v0));
  const Var hvp = grad(gv, {x})[0];

  const Tensor expected = tensor::matmul(a, v0);
  EXPECT_LT(tensor::max_abs_diff(hvp.value(), expected), 1e-10);
}

// Full Hessian reconstruction for a small non-quadratic function, checked
// against central differences of the autodiff gradient.
TEST(SecondOrder, FullHessianMatchesFiniteDifferenceOfGradient) {
  const auto f = [](const Var& x) {
    // f = sum(exp(x) ⊙ x) + (Σx)²
    const Var s = ops::sum(x);
    return ops::add(ops::sum(ops::mul(ops::exp(x), x)), ops::mul(s, s));
  };
  const Tensor x0{{0.2}, {-0.5}, {0.9}};

  // Autodiff Hessian rows via HVP with basis vectors.
  Tensor hess(3, 3);
  for (std::size_t k = 0; k < 3; ++k) {
    Var x(x0, true);
    const Var g = grad(f(x), {x}, {.create_graph = true})[0];
    Tensor e(3, 1);
    e(k, 0) = 1.0;
    const Var hv = grad(ops::dot(g, ops::constant(e)), {x})[0];
    for (std::size_t i = 0; i < 3; ++i) hess(i, k) = hv.value()(i, 0);
  }

  const double eps = 1e-6;
  for (std::size_t j = 0; j < 3; ++j) {
    Tensor plus = x0, minus = x0;
    plus(j, 0) += eps;
    minus(j, 0) -= eps;
    Var xp(plus, true), xm(minus, true);
    const Var gp = grad(f(xp), {xp})[0];
    const Var gm = grad(f(xm), {xm})[0];
    for (std::size_t i = 0; i < 3; ++i) {
      const double num = (gp.value()(i, 0) - gm.value()(i, 0)) / (2 * eps);
      EXPECT_NEAR(hess(i, j), num, 1e-4) << "H(" << i << "," << j << ")";
    }
  }
}

// The exact MAML identity on quadratics: with L(θ) = ½(θ−c)ᵀA(θ−c) and
// φ = θ − αAθ + αAc, the meta-gradient of L(φ) is (I − αA)A(I − αA)(θ − c).
TEST(SecondOrder, MamlMetaGradientOnQuadraticIsExact) {
  const Tensor a{{1.5, 0.2}, {0.2, 0.9}};
  const Tensor c{{0.3}, {-0.8}};
  const Tensor theta0{{1.0}, {2.0}};
  const double alpha = 0.1;

  const auto loss = [&](const Var& th) {
    const Var d = ops::sub(th, ops::constant(c));
    return ops::smul(ops::dot(d, ops::matmul(ops::constant(a), d)), 0.5);
  };

  Var theta(theta0, true);
  const Var g_inner = grad(loss(theta), {theta}, {.create_graph = true})[0];
  const Var phi = ops::sub(theta, ops::smul(g_inner, alpha));
  const Var meta = loss(phi);
  const Var meta_grad = grad(meta, {theta})[0];

  // Closed form.
  const Tensor eye = Tensor::identity(2);
  const Tensor m = eye - a * alpha;
  const Tensor expected =
      tensor::matmul(m, tensor::matmul(a, tensor::matmul(m, theta0 - c)));
  EXPECT_LT(tensor::max_abs_diff(meta_grad.value(), expected), 1e-10);
}

// Differentiating through a *chain* of two inner steps (MAML with 2 inner
// updates) still matches finite differences.
TEST(SecondOrder, TwoInnerStepsMatchFiniteDifferences) {
  util::Rng rng(8);
  const Tensor w0 = Tensor::randn(3, 2, rng, 0.0, 0.5);
  const Tensor x = Tensor::randn(4, 3, rng);
  const double alpha = 0.05;

  const auto inner_loss = [&](const Var& w) {
    return ops::mean(ops::square(ops::tanh(ops::matmul(ops::constant(x), w))));
  };
  const auto two_step_meta = [&](const Tensor& w_init) {
    Var w(w_init, true);
    Var cur = w;
    for (int s = 0; s < 2; ++s) {
      // Gradient wrt the intermediate point; its graph still reaches the
      // leaf w, so the final meta-gradient carries the full chain rule.
      const Var gc = grad(inner_loss(cur), {cur}, {.create_graph = true})[0];
      cur = ops::sub(cur, ops::smul(gc, alpha));
    }
    return std::pair<Var, Var>(inner_loss(cur), w);
  };

  auto [meta, leaf] = two_step_meta(w0);
  const Var mg = grad(meta, {leaf})[0];

  const double eps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      Tensor p = w0, m = w0;
      p(i, j) += eps;
      m(i, j) -= eps;
      const double fp = two_step_meta(p).first.item();
      const double fm = two_step_meta(m).first.item();
      EXPECT_NEAR(mg.value()(i, j), (fp - fm) / (2 * eps), 1e-5);
    }
  }
}

TEST(SecondOrder, CreateGraphFalseReturnsDetachedGrads) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::mul(x, x);
  const Var g = grad(y, {x})[0];  // create_graph = false
  EXPECT_FALSE(g.requires_grad());
}

TEST(SecondOrder, CreateGraphTrueReturnsDifferentiableGrads) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::mul(x, x);
  const Var g = grad(y, {x}, {.create_graph = true})[0];
  EXPECT_TRUE(g.requires_grad());
}

TEST(SecondOrder, PowScalarDerivatives) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::pow_scalar(x, 2.5);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  EXPECT_NEAR(g1.item(), 2.5 * std::pow(2.0, 1.5), 1e-10);
  EXPECT_NEAR(g2.item(), 2.5 * 1.5 * std::pow(2.0, 0.5), 1e-10);
}

TEST(SecondOrder, SqrtDerivatives) {
  Var x(Tensor{{4.0}}, true);
  const Var y = ops::sqrt(x);
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  EXPECT_NEAR(g1.item(), 0.25, 1e-12);               // 1/(2√x)
  EXPECT_NEAR(g2.item(), -1.0 / 32.0, 1e-12);        // −1/(4 x^{3/2})
}

TEST(SecondOrder, SoftmaxRowsJacobianViaDoubleBackward) {
  // d/dx of sum(softmax(x)²) checked against finite differences, exercising
  // the composite exp/logsumexp graph twice.
  const Tensor x0{{0.3, -0.5, 1.1}};
  const auto f = [](const Var& x) {
    return ops::sum(ops::square(ops::softmax_rows(x)));
  };
  Var x(x0, true);
  const Var g = grad(f(x), {x}, {.create_graph = true})[0];
  const Var gg = grad(ops::sum(g), {x})[0];
  const double eps = 1e-5;
  for (std::size_t j = 0; j < 3; ++j) {
    Tensor p = x0, m = x0;
    p(0, j) += eps;
    m(0, j) -= eps;
    Var xp(p, true), xm(m, true);
    const double np = tensor::sum(grad(f(xp), {xp})[0].value());
    const double nm = tensor::sum(grad(f(xm), {xm})[0].value());
    EXPECT_NEAR(gg.value()(0, j), (np - nm) / (2 * eps), 1e-5);
  }
}

TEST(SecondOrder, SliceConcatRoundTripKeepsCurvature) {
  // f(x) = sum(slice(concat(x², c), 0, rows)²) = sum(x⁴): f'' = 12x².
  Var x(Tensor{{1.5}}, true);
  const Var stacked =
      ops::concat_rows(ops::square(x), ops::constant(Tensor{{7.0}}));
  const Var y = ops::sum(ops::square(ops::slice_rows(stacked, 0, 1)));
  const Var g1 = grad(y, {x}, {.create_graph = true})[0];
  const Var g2 = grad(ops::sum(g1), {x})[0];
  EXPECT_NEAR(g1.item(), 4.0 * std::pow(1.5, 3), 1e-10);
  EXPECT_NEAR(g2.item(), 12.0 * 1.5 * 1.5, 1e-10);
}

// ReLU's second derivative is zero a.e.; double backward must not blow up.
TEST(SecondOrder, ReluSecondDerivativeIsZero) {
  Var x(Tensor{{1.3}, {-0.8}}, true);
  const Var y = ops::sum(ops::square(ops::relu(x)));
  const Var g = grad(y, {x}, {.create_graph = true})[0];
  EXPECT_NEAR(g.value()(0, 0), 2.0 * 1.3, 1e-12);
  EXPECT_NEAR(g.value()(1, 0), 0.0, 1e-12);
  // d²/dx² of x² (x>0 branch) = 2; mask term contributes no curvature of
  // its own.
  const Var gg = grad(ops::sum(g), {x})[0];
  EXPECT_NEAR(gg.value()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(gg.value()(1, 0), 0.0, 1e-12);
}

// Embedding lookup is linear, so f(x) = Σ gather(x)² is quadratic and the
// Hessian is diagonal with entry 2·(times row was gathered). The double
// backward chain here is gather → (backward) scatter_add → (backward)
// gather, exactly what MAML runs through a trainable embedding table.
TEST(SecondOrder, GatherRowsHessianCountsRepeats) {
  util::Rng rng(21);
  const Tensor x0 = Tensor::randn(4, 2, rng);
  const std::vector<std::size_t> idx{1, 3, 1, 0};  // row 1 gathered twice

  Var x(x0, true);
  const Var f = ops::sum(ops::square(ops::gather_rows(x, idx)));
  const Var g = grad(f, {x}, {.create_graph = true})[0];
  const Var hvp = grad(ops::sum(g), {x})[0];  // H · 1

  const double counts[4] = {1.0, 2.0, 0.0, 1.0};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(g.value()(i, j), 2.0 * counts[i] * x0(i, j), 1e-12);
      EXPECT_NEAR(hvp.value()(i, j), 2.0 * counts[i], 1e-12);
    }
  }
}

// scatter_add_rows composed with a nonlinearity keeps exact curvature:
// check an HVP against central differences of the autodiff gradient.
TEST(SecondOrder, ScatterAddRowsHvpMatchesFiniteDifferences) {
  util::Rng rng(22);
  const Tensor x0 = Tensor::randn(3, 2, rng);
  const std::vector<std::size_t> idx{2, 0, 2};  // rows 0 and 2 collide
  const auto f = [&idx](const Var& v) {
    return ops::sum(ops::exp(ops::scatter_add_rows(v, idx, 4)));
  };

  Var x(x0, true);
  const Var g = grad(f(x), {x}, {.create_graph = true})[0];
  const Var hvp = grad(ops::sum(g), {x})[0];

  const double eps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      Tensor plus = x0, minus = x0;
      plus(i, j) += eps;
      minus(i, j) -= eps;
      Var xp(plus, true), xm(minus, true);
      const double gp_sum = tensor::sum(grad(f(xp), {xp})[0].value());
      const double gm_sum = tensor::sum(grad(f(xm), {xm})[0].value());
      EXPECT_NEAR(hvp.value()(i, j), (gp_sum - gm_sum) / (2 * eps), 1e-4)
          << "HVP(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace fedml::autodiff

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include "autodiff/ops.h"
#include "autodiff/var.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedml::autodiff {
namespace {

namespace ops = fedml::autodiff::ops;
using tensor::Tensor;

/// A named scalar-valued function of one matrix input, for the
/// finite-difference sweep below.
struct OpCase {
  std::string name;
  std::size_t rows, cols;
  std::function<Var(const Var&)> fn;      ///< must map R×C to 1×1
  double input_lo = -1.0, input_hi = 1.0; ///< sampling range for the input
};

/// gtest prints a parameter with no printer as raw bytes, which for OpCase
/// include heap pointers; the test name must stay stable across builds.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class GradCheck : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheck, MatchesCentralDifferences) {
  const auto& c = GetParam();
  util::Rng rng(99);
  Tensor x0(c.rows, c.cols);
  for (std::size_t i = 0; i < c.rows; ++i)
    for (std::size_t j = 0; j < c.cols; ++j)
      x0(i, j) = rng.uniform(c.input_lo, c.input_hi);

  Var x(x0, /*requires_grad=*/true);
  const Var y = c.fn(x);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 1u);
  const Var g = grad(y, {x})[0];

  const double eps = 1e-6;
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = 0; j < c.cols; ++j) {
      Tensor plus = x0, minus = x0;
      plus(i, j) += eps;
      minus(i, j) -= eps;
      const double num =
          (c.fn(Var(plus)).item() - c.fn(Var(minus)).item()) / (2 * eps);
      EXPECT_NEAR(g.value()(i, j), num, 1e-5)
          << c.name << " at (" << i << "," << j << ")";
    }
  }
}

const Tensor kMat{{0.3, -0.7}, {1.1, 0.4}, {-0.2, 0.9}};  // 3×2 mixing matrix

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheck,
    ::testing::Values(
        OpCase{"sum", 2, 3, [](const Var& x) { return ops::sum(x); }},
        OpCase{"mean", 2, 3, [](const Var& x) { return ops::mean(x); }},
        OpCase{"neg_sum", 2, 3,
               [](const Var& x) { return ops::sum(ops::neg(x)); }},
        OpCase{"smul", 2, 2,
               [](const Var& x) { return ops::sum(ops::smul(x, -2.5)); }},
        OpCase{"square", 2, 3,
               [](const Var& x) { return ops::sum(ops::square(x)); }},
        OpCase{"mul_self_shifted", 2, 2,
               [](const Var& x) {
                 const Var ones = ops::constant(Tensor::ones(2, 2));
                 return ops::sum(ops::mul(x, ops::add(x, ones)));
               }},
        OpCase{"exp", 2, 2,
               [](const Var& x) { return ops::sum(ops::exp(x)); }},
        OpCase{"log", 2, 2,
               [](const Var& x) { return ops::sum(ops::log(x)); }, 0.2, 2.0},
        OpCase{"reciprocal", 2, 2,
               [](const Var& x) { return ops::sum(ops::reciprocal(x)); }, 0.3,
               2.0},
        OpCase{"div", 2, 2,
               [](const Var& x) {
                 const Var c = ops::constant(Tensor{{1.0, 2.0}, {3.0, 4.0}});
                 return ops::sum(ops::div(c, x));
               },
               0.3, 2.0},
        OpCase{"sigmoid", 2, 3,
               [](const Var& x) { return ops::sum(ops::sigmoid(x)); }},
        OpCase{"tanh", 2, 3,
               [](const Var& x) { return ops::sum(ops::tanh(x)); }},
        OpCase{"relu", 2, 3,
               [](const Var& x) { return ops::sum(ops::relu(x)); }, 0.1, 1.0},
        OpCase{"matmul", 2, 3,
               [](const Var& x) {
                 return ops::sum(ops::matmul(x, ops::constant(kMat)));
               }},
        OpCase{"matmul_quadratic", 2, 3,
               [](const Var& x) {
                 const Var y = ops::matmul(x, ops::constant(kMat));
                 return ops::sum(ops::square(y));
               }},
        OpCase{"transpose", 2, 3,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::transpose(x)));
               }},
        OpCase{"row_sums", 3, 2,
               [](const Var& x) { return ops::sum(ops::square(ops::row_sums(x))); }},
        OpCase{"col_sums", 3, 2,
               [](const Var& x) { return ops::sum(ops::square(ops::col_sums(x))); }},
        OpCase{"expand_cols", 3, 1,
               [](const Var& x) {
                 const Var e = ops::expand_cols(x, 4);
                 return ops::sum(ops::square(e));
               }},
        OpCase{"expand_rows", 1, 3,
               [](const Var& x) {
                 const Var e = ops::expand_rows(x, 4);
                 return ops::sum(ops::square(e));
               }},
        OpCase{"expand_scalar", 1, 1,
               [](const Var& x) { return ops::sum(ops::square(ops::expand(x, 2, 2))); }},
        OpCase{"add_rowvec", 1, 2,
               [](const Var& x) {
                 const Var a = ops::constant(Tensor{{1, 2}, {3, 4}, {5, 6}});
                 return ops::sum(ops::square(ops::add_rowvec(a, x)));
               }},
        OpCase{"mul_colvec", 3, 1,
               [](const Var& x) {
                 const Var a = ops::constant(Tensor{{1, 2}, {3, 4}, {5, 6}});
                 return ops::sum(ops::square(ops::mul_colvec(a, x)));
               }},
        OpCase{"gather_cols", 3, 4,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::gather_cols(x, {1, 3, 0})));
               }},
        OpCase{"scatter_cols", 3, 1,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::scatter_cols(x, {2, 0, 1}, 4)));
               }},
        OpCase{"gather_rows", 4, 2,
               [](const Var& x) {
                 // Repeated index: the backward must accumulate into row 1.
                 return ops::sum(
                     ops::square(ops::gather_rows(x, {1, 3, 1, 0})));
               }},
        OpCase{"scatter_add_rows", 3, 2,
               [](const Var& x) {
                 // Colliding rows: out row 2 accumulates two input rows.
                 return ops::sum(
                     ops::square(ops::scatter_add_rows(x, {2, 0, 2}, 4)));
               }},
        OpCase{"logsumexp_rows", 3, 4,
               [](const Var& x) { return ops::sum(ops::logsumexp_rows(x)); }},
        OpCase{"dot", 2, 3,
               [](const Var& x) {
                 return ops::dot(x, ops::constant(Tensor::full(2, 3, 0.5)));
               }},
        OpCase{"squared_norm", 2, 3,
               [](const Var& x) { return ops::squared_norm(x); }},
        OpCase{"deep_chain", 2, 2,
               [](const Var& x) {
                 const Var h = ops::tanh(ops::matmul(
                     x, ops::constant(Tensor{{0.5, -0.3}, {0.2, 0.8}})));
                 return ops::mean(ops::exp(ops::smul(h, 0.7)));
               }},
        OpCase{"abs", 2, 3,
               [](const Var& x) { return ops::sum(ops::abs(x)); }, 0.1, 1.0},
        OpCase{"pow_scalar", 2, 2,
               [](const Var& x) { return ops::sum(ops::pow_scalar(x, 1.7)); },
               0.2, 2.0},
        OpCase{"sqrt", 2, 2,
               [](const Var& x) { return ops::sum(ops::sqrt(x)); }, 0.2, 2.0},
        OpCase{"clamp", 2, 3,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::clamp(x, -0.5, 0.5)));
               }},
        OpCase{"concat_rows", 2, 3,
               [](const Var& x) {
                 const Var c = ops::constant(Tensor::full(1, 3, 0.5));
                 return ops::sum(ops::square(ops::concat_rows(x, c)));
               }},
        OpCase{"slice_rows", 4, 2,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::slice_rows(x, 1, 2)));
               }},
        OpCase{"l1_norm", 2, 3,
               [](const Var& x) { return ops::l1_norm(x); }, 0.1, 1.0},
        OpCase{"row_means", 3, 4,
               [](const Var& x) { return ops::sum(ops::square(ops::row_means(x))); }},
        OpCase{"softmax_rows", 3, 4,
               [](const Var& x) {
                 return ops::sum(ops::square(ops::softmax_rows(x)));
               }}),
    ::testing::PrintToStringParamName());

// --------------------------------------------------------- basic semantics --

TEST(Autodiff, LeafWithoutGradGetsZeroWhenUnused) {
  Var x(Tensor{{1.0}}, true);
  Var y(Tensor{{2.0}}, true);
  const Var out = ops::smul(x, 3.0);
  const auto gs = grad(out, {x, y});
  EXPECT_DOUBLE_EQ(gs[0].item(), 3.0);
  EXPECT_DOUBLE_EQ(gs[1].item(), 0.0);  // allow_unused default
}

TEST(Autodiff, DisallowUnusedThrows) {
  Var x(Tensor{{1.0}}, true);
  Var y(Tensor{{2.0}}, true);
  const Var out = ops::smul(x, 3.0);
  EXPECT_THROW(grad(out, {y}, {.allow_unused = false}), util::Error);
}

TEST(Autodiff, GradRequiresScalarOutput) {
  Var x(Tensor{{1.0, 2.0}}, true);
  EXPECT_THROW(grad(ops::smul(x, 2.0), {x}), util::Error);
}

TEST(Autodiff, ConstantOutputGivesZeroGrads) {
  Var x(Tensor{{1.0}}, true);
  const Var c = ops::constant(Tensor{{5.0}});
  const auto gs = grad(c, {x});
  EXPECT_DOUBLE_EQ(gs[0].item(), 0.0);
}

TEST(Autodiff, DetachBlocksGradient) {
  Var x(Tensor{{2.0}}, true);
  const Var y = ops::square(x).detach();
  const Var z = ops::smul(y, 1.0);
  const auto gs = grad(ops::sum(ops::add(z, ops::smul(x, 3.0))), {x});
  EXPECT_DOUBLE_EQ(gs[0].item(), 3.0);  // only the direct path counts
}

TEST(Autodiff, FanOutAccumulates) {
  Var x(Tensor{{3.0}}, true);
  const Var y = ops::add(ops::square(x), ops::smul(x, 4.0));  // x² + 4x
  const auto gs = grad(ops::sum(y), {x});
  EXPECT_DOUBLE_EQ(gs[0].item(), 2.0 * 3.0 + 4.0);
}

TEST(Autodiff, SharedSubgraphCountedOnce) {
  Var x(Tensor{{2.0}}, true);
  const Var s = ops::square(x);       // s = x²
  const Var y = ops::mul(s, s);       // y = x⁴ → dy/dx = 4x³ = 32
  EXPECT_DOUBLE_EQ(grad(ops::sum(y), {x})[0].item(), 32.0);
}

TEST(Autodiff, GradOfSameGraphTwiceIsStable) {
  Var x(Tensor{{1.5}}, true);
  const Var y = ops::exp(x);
  const double g1 = grad(y, {x})[0].item();
  const double g2 = grad(y, {x})[0].item();
  EXPECT_DOUBLE_EQ(g1, g2);
  EXPECT_NEAR(g1, std::exp(1.5), 1e-12);
}

TEST(Autodiff, EmptyVarThrows) {
  Var empty;
  EXPECT_THROW((void)empty.value(), util::Error);
  Var x(Tensor{{1.0}}, true);
  EXPECT_THROW(grad(ops::sum(x), {empty}), util::Error);
}

TEST(Autodiff, BackwardShapeMismatchIsCaught) {
  // add enforces shapes at op construction, so malformed graphs are
  // impossible to build in the first place.
  Var a(Tensor(2, 2), true);
  Var b(Tensor(2, 3), true);
  EXPECT_THROW(ops::add(a, b), util::Error);
}

}  // namespace
}  // namespace fedml::autodiff

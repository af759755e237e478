// Unit tests for the src/kern/ compute-kernel subsystem: gemm goldens
// against a naive reference across edge shapes, exact bit-equality of the
// kCompat path against the historical loop, elementwise aliasing, the
// SmallFunc/SmallVec tape containers, and finite-difference validation of
// the second-order meta-gradient when the graph is built through
// kern::Mode::kFast.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "autodiff/ops.h"
#include "core/meta.h"
#include "data/synthetic.h"
#include "kern/elementwise.h"
#include "kern/gemm.h"
#include "kern/kern.h"
#include "kern/small_func.h"
#include "kern/small_vec.h"
#include "nn/module.h"
#include "nn/params.h"
#include "tensor/tensor.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedml {
namespace {

using tensor::Tensor;

// ------------------------------------------------------------------ gemm ---

/// Textbook ijk reference: no blocking, no skip, plain accumulation.
std::vector<double> naive_gemm(std::size_t m, std::size_t n, std::size_t k,
                               const std::vector<double>& a,
                               const std::vector<double>& b) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
  return c;
}

/// Byte-exact copy of the pre-kern matmul loop (ikj order, zero-skip) that
/// kCompat contracts to reproduce bit for bit.
std::vector<double> legacy_ikj(std::size_t m, std::size_t n, std::size_t k,
                               const std::vector<double>& a,
                               const std::vector<double>& b) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double aik = a[i * k + p];
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[p * n + j];
    }
  }
  return c;
}

std::vector<double> random_vec(std::size_t n, util::Rng& rng,
                               double zero_fraction = 0.0) {
  std::vector<double> v(n);
  for (auto& x : v)
    x = (zero_fraction > 0.0 && rng.uniform() < zero_fraction)
            ? 0.0
            : rng.normal(0.0, 1.0);
  return v;
}

struct GemmShape {
  std::size_t m, n, k;
};

void PrintTo(const GemmShape& s, std::ostream* os) {
  *os << s.m << 'x' << s.n << 'x' << s.k;
}

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, BothModesMatchNaiveReference) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(17 + m * 100 + n * 10 + k);
  const auto a = random_vec(m * k, rng, /*zero_fraction=*/0.3);
  const auto b = random_vec(k * n, rng);
  const auto ref = naive_gemm(m, n, k, a, b);
  for (const auto mode : {kern::Mode::kCompat, kern::Mode::kFast}) {
    std::vector<double> c(m * n, 0.0);
    kern::gemm(m, n, k, a.data(), b.data(), c.data(), mode);
    for (std::size_t i = 0; i < m * n; ++i)
      EXPECT_NEAR(c[i], ref[i], 1e-12 * (static_cast<double>(k) + 1.0))
          << "mode=" << static_cast<int>(mode) << " idx=" << i;
  }
}

TEST_P(GemmSweep, CompatIsBitIdenticalToLegacyLoop) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(41 + m + n + k);
  const auto a = random_vec(m * k, rng, /*zero_fraction=*/0.4);
  const auto b = random_vec(k * n, rng);
  const auto legacy = legacy_ikj(m, n, k, a, b);
  std::vector<double> c(m * n, 0.0);
  kern::gemm(m, n, k, a.data(), b.data(), c.data(), kern::Mode::kCompat);
  if (m * n > 0) {
    EXPECT_EQ(0, std::memcmp(c.data(), legacy.data(), m * n * sizeof(double)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 7, 3},
                      GemmShape{7, 1, 3}, GemmShape{3, 4, 0},
                      GemmShape{5, 3, 8}, GemmShape{4, 4, 4},
                      GemmShape{17, 13, 9}, GemmShape{33, 6, 21}));

TEST(Gemm, TransposedVariantsMatchExplicitTranspose) {
  util::Rng rng(7);
  const std::size_t m = 9, n = 6, k = 11;
  const auto a = random_vec(m * k, rng);   // m×k
  const auto bt = random_vec(n * k, rng);  // n×k (so b = btᵀ is k×n)
  std::vector<double> b(k * n);
  kern::transpose(n, k, bt.data(), b.data());
  const auto ref = naive_gemm(m, n, k, a, b);

  std::vector<double> c_nt(m * n, 0.0);
  kern::gemm_nt(m, n, k, a.data(), bt.data(), c_nt.data());
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c_nt[i], ref[i], 1e-10);

  // a stored transposed (k×m) exercises gemm_tn.
  std::vector<double> at(k * m);
  kern::transpose(m, k, a.data(), at.data());
  std::vector<double> c_tn(m * n, 0.0);
  kern::gemm_tn(m, n, k, at.data(), b.data(), c_tn.data());
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c_tn[i], ref[i], 1e-10);
}

TEST(Gemm, TransposeRoundTripsAndHandlesVectors) {
  util::Rng rng(3);
  for (const auto& [r, c] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 8}, {8, 1}, {5, 7}, {64, 33}}) {
    const auto in = random_vec(r * c, rng);
    std::vector<double> t(c * r), back(r * c);
    kern::transpose(r, c, in.data(), t.data());
    kern::transpose(c, r, t.data(), back.data());
    EXPECT_EQ(0, std::memcmp(in.data(), back.data(), r * c * sizeof(double)));
  }
}

// ----------------------------------------------------------- elementwise ---

TEST(Elementwise, ScaleAddToleratesFullAliasing) {
  util::Rng rng(5);
  const auto x0 = random_vec(257, rng);
  const auto y = random_vec(257, rng);
  std::vector<double> expected(257);
  kern::scale_add(257, x0.data(), y.data(), -0.25, expected.data());

  auto x = x0;  // out == x
  kern::scale_add(257, x.data(), y.data(), -0.25, x.data());
  EXPECT_EQ(0, std::memcmp(x.data(), expected.data(), 257 * sizeof(double)));

  auto y2 = y;  // out == y
  kern::scale_add(257, x0.data(), y2.data(), -0.25, y2.data());
  EXPECT_EQ(0, std::memcmp(y2.data(), expected.data(), 257 * sizeof(double)));
}

TEST(Elementwise, FusedChainsMatchUnfusedExpressions) {
  util::Rng rng(9);
  const std::size_t n = 101;
  const auto g = random_vec(n, rng);
  const auto s = random_vec(n, rng);
  std::vector<double> fused(n);
  kern::sigmoid_mul(n, g.data(), s.data(), fused.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double unfused = g[i] * (s[i] * (1.0 - s[i]));
    EXPECT_EQ(fused[i], unfused);  // same expression => same bits
  }
  kern::tanh_mul(n, g.data(), s.data(), fused.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fused[i], g[i] * (1.0 - s[i] * s[i]));
  }
}

TEST(Elementwise, AdamStepMatchesScalarLoop) {
  util::Rng rng(13);
  const std::size_t n = 64;
  const auto p = random_vec(n, rng), m = random_vec(n, rng);
  auto v = random_vec(n, rng);
  for (auto& x : v) x = std::abs(x);
  const double bc1 = 0.9, bc2 = 0.99, lr = 0.01, eps = 1e-8;
  std::vector<double> out(n);
  kern::adam_step(n, p.data(), m.data(), v.data(), bc1, bc2, lr, eps,
                  out.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double mhat = m[i] / bc1, vhat = v[i] / bc2;
    EXPECT_EQ(out[i], p[i] - lr * mhat / (std::sqrt(vhat) + eps));
  }
}

// ------------------------------------------------------------- SmallFunc ---

TEST(SmallFunc, SmallCaptureStaysInline) {
  double a = 2.0, b = 3.0;
  kern::SmallFunc<double(double)> f([a, b](double x) { return a * x + b; });
  EXPECT_TRUE(f.is_inline());
  EXPECT_DOUBLE_EQ(f(4.0), 11.0);
}

TEST(SmallFunc, LargeCaptureSpillsToHeapAndStillWorks) {
  std::vector<double> big(1000, 1.5);
  kern::SmallFunc<double(std::size_t)> f(
      [big](std::size_t i) { return big[i]; });
  EXPECT_DOUBLE_EQ(f(999), 1.5);
}

TEST(SmallFunc, MovePreservesBehaviorInBothModes) {
  kern::SmallFunc<int()> small([] { return 7; });
  kern::SmallFunc<int()> moved_small(std::move(small));
  EXPECT_EQ(moved_small(), 7);

  std::vector<int> big(400, 3);
  kern::SmallFunc<int()> heap([big] { return big[0]; });
  kern::SmallFunc<int()> moved_heap(std::move(heap));
  EXPECT_EQ(moved_heap(), 3);

  kern::SmallFunc<int()> assigned;
  assigned = std::move(moved_heap);
  EXPECT_EQ(assigned(), 3);
}

TEST(SmallFunc, CapturedObjectsAreDestroyed) {
  auto counter = std::make_shared<int>(0);
  {
    kern::SmallFunc<int()> f([counter] { return *counter; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
  {
    std::vector<std::shared_ptr<int>> big(50, counter);
    kern::SmallFunc<int()> f([big] { return *big[0]; });
    EXPECT_GT(counter.use_count(), 50);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

// -------------------------------------------------------------- SmallVec ---

TEST(SmallVec, InlineUntilCapacityThenSpills) {
  kern::SmallVec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_FALSE(v.spilled());
  v.push_back(3);
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 3);
}

TEST(SmallVec, MoveHandlesInlineAndHeapStates) {
  kern::SmallVec<std::shared_ptr<int>, 2> inl;
  inl.push_back(std::make_shared<int>(1));
  kern::SmallVec<std::shared_ptr<int>, 2> from_inl(std::move(inl));
  ASSERT_EQ(from_inl.size(), 1u);
  EXPECT_EQ(*from_inl[0], 1);

  kern::SmallVec<std::shared_ptr<int>, 2> heap;
  for (int i = 0; i < 9; ++i) heap.push_back(std::make_shared<int>(i));
  kern::SmallVec<std::shared_ptr<int>, 2> from_heap(std::move(heap));
  ASSERT_EQ(from_heap.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(*from_heap[static_cast<std::size_t>(i)], i);
}

// ----------------------------------------------- mode dispatch / autodiff ---

TEST(Mode, ScopedModeRestoresOnExit) {
  ASSERT_EQ(kern::mode(), kern::Mode::kCompat);
  {
    kern::ScopedMode fast(kern::Mode::kFast);
    EXPECT_EQ(kern::mode(), kern::Mode::kFast);
  }
  EXPECT_EQ(kern::mode(), kern::Mode::kCompat);
}

TEST(Mode, FastMatmulGradMatchesCompatValues) {
  util::Rng rng(21);
  const Tensor av = Tensor::randn(5, 4, rng);
  const Tensor bv = Tensor::randn(4, 3, rng);
  const auto run = [&](kern::Mode m) {
    kern::ScopedMode sm(m);
    autodiff::Var a(av, true), b(bv, true);
    const auto y = autodiff::ops::sum(autodiff::ops::matmul(a, b));
    const auto g = autodiff::grad(y, {a, b});
    return std::make_pair(g[0].value(), g[1].value());
  };
  const auto [ga_c, gb_c] = run(kern::Mode::kCompat);
  const auto [ga_f, gb_f] = run(kern::Mode::kFast);
  EXPECT_LT(tensor::max_abs_diff(ga_c, ga_f), 1e-12);
  EXPECT_LT(tensor::max_abs_diff(gb_c, gb_f), 1e-12);
}

TEST(Mode, FusedSigmoidTanhSecondDerivativesMatchFiniteDifferences) {
  kern::ScopedMode fast(kern::Mode::kFast);
  util::Rng rng(23);
  const Tensor x0 = Tensor::randn(3, 2, rng);
  for (const bool use_tanh : {false, true}) {
    // f(x) = sum(act(x)); FD-check d/dx of sum(grad f) — exercises the
    // *_vjp fused backward being differentiated again.
    const auto grad_sum = [&](const Tensor& xv) {
      autodiff::Var x(xv, true);
      const auto y = use_tanh ? autodiff::ops::tanh(x) : autodiff::ops::sigmoid(x);
      const auto g =
          autodiff::grad(autodiff::ops::sum(y), {x}, {.create_graph = true});
      return autodiff::ops::sum(g[0]);
    };
    {
      // Analytic: grad of grad_sum at x0.
      autodiff::Var xx(x0, true);
      const auto y =
          use_tanh ? autodiff::ops::tanh(xx) : autodiff::ops::sigmoid(xx);
      const auto g1 =
          autodiff::grad(autodiff::ops::sum(y), {xx}, {.create_graph = true});
      const auto g2 = autodiff::grad(autodiff::ops::sum(g1[0]), {xx});
      // FD of the first derivative.
      const double eps = 1e-6;
      for (std::size_t i = 0; i < x0.rows(); ++i) {
        for (std::size_t j = 0; j < x0.cols(); ++j) {
          Tensor plus = x0, minus = x0;
          plus(i, j) += eps;
          minus(i, j) -= eps;
          const double fd =
              (grad_sum(plus).item() - grad_sum(minus).item()) / (2 * eps);
          EXPECT_NEAR(g2[0].value()(i, j), fd, 1e-5);
        }
      }
    }
  }
}

data::Dataset kern_toy_task(std::size_t n, std::size_t d, std::size_t classes,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset ds;
  ds.x = Tensor::randn(n, d, rng);
  ds.y.resize(n);
  for (auto& y : ds.y)
    y = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(classes) - 1));
  return ds;
}

// The PR's key safety property: the second-order meta-gradient stays exact
// when every op dispatches through the fast kernels and fused backward
// chains (matmul_nt/tn, scale_add, sigmoid_vjp).
TEST(Mode, SecondOrderMetaGradientThroughFastModeMatchesFiniteDifferences) {
  kern::ScopedMode fast(kern::Mode::kFast);
  const auto model = nn::make_mlp(4, {5}, 3);
  util::Rng rng(29);
  const auto theta = model->init_params(rng);
  const auto train = kern_toy_task(6, 4, 3, 31);
  const auto test = kern_toy_task(8, 4, 3, 37);
  const double alpha = 0.1;
  const auto g = core::meta_gradient(*model, theta, train, test, alpha,
                                     core::MetaOrder::kSecondOrder);
  const auto num = testing::numerical_gradient(
      [&](const nn::ParamList& p) {
        return core::meta_loss(*model, p, train, test, alpha);
      },
      theta);
  EXPECT_LT(testing::max_param_diff(num, g), 1e-5);
}

TEST(Mode, MultistepMetaGradientThroughFastModeMatchesFiniteDifferences) {
  kern::ScopedMode fast(kern::Mode::kFast);
  const auto model = nn::make_softmax_regression(4, 3);
  util::Rng rng(43);
  const auto theta = model->init_params(rng);
  const auto train = kern_toy_task(6, 4, 3, 47);
  const auto test = kern_toy_task(5, 4, 3, 53);
  const double alpha = 0.2;
  const std::size_t steps = 3;
  const auto g = core::meta_gradient_multistep(*model, theta, train, {&test},
                                               alpha, steps,
                                               core::MetaOrder::kSecondOrder);
  const auto num = testing::numerical_gradient(
      [&](const nn::ParamList& p) {
        return core::meta_loss_multistep(*model, p, train, test, alpha, steps);
      },
      theta);
  EXPECT_LT(testing::max_param_diff(num, g), 1e-5);
}

// ---------------------------------------------------- parallel dispatch ----

TEST(ParallelPolicy, SmallRangesStaySerialUnderMinGrain) {
  util::ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  bool off_thread = false;
  // n < min_grain: the satellite contract is a plain inline loop — no task
  // dispatch, so every index runs on the calling thread.
  pool.parallel_for(
      7,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) off_thread = true;
      },
      /*min_grain=*/16);
  EXPECT_FALSE(off_thread);

  // And the indices still all run, exactly once.
  std::vector<int> hits(7, 0);
  pool.parallel_for(7, [&](std::size_t i) { hits[i]++; }, /*min_grain=*/16);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelPolicy, GrainRowsServesWholeRangeWithoutPool) {
  const auto saved = kern::parallel_policy();
  kern::set_parallel_policy({});  // no pool: everything serial
  EXPECT_EQ(kern::grain_rows(100, 1000), 100u);
  std::size_t calls = 0, covered = 0;
  kern::parallel_rows(64, 128, [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
  });
  EXPECT_EQ(calls, 1u);  // serial fallback: one span, on the caller
  EXPECT_EQ(covered, 64u);
  kern::set_parallel_policy(saved);
}

TEST(ParallelPolicy, RoutesThroughPoolAndCoversRange) {
  util::ThreadPool pool(2);
  const auto saved = kern::parallel_policy();
  kern::set_parallel_policy({&pool, /*grain=*/64});
  std::vector<std::atomic<int>> hits(512);
  kern::parallel_rows(512, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  kern::set_parallel_policy(saved);
}

}  // namespace
}  // namespace fedml

// Meta-gradient hot-path benchmark: the tracked perf baseline for src/kern/.
//
// Sweeps model size × batch × inner-steps and times the full second-order
// meta-gradient step (paper eq. (3)–(4), multi-step variant) under both
// dispatch modes:
//
//   compat — kern::Mode::kCompat, the process default: legacy summation
//            order and legacy autodiff graph shapes, bit-identical to the
//            pre-kern implementation.
//   fast   — kern::Mode::kFast: blocked/packed gemm, transposed-B autodiff
//            paths (A·Bᵀ without materializing Bᵀ), and fused elementwise
//            VJP chains.
//
// Two micro sections isolate where the time goes: raw gemm, and the fused
// sigmoid-VJP chain versus the three-pass temporary chain it replaces.
//
// Output: a config-headed table (one row per swept config), optional CSV
// via --csv=<path>, and BENCH_meta_step.json for scripts/check_bench.py
// --compare. `hardware_threads` is recorded so the compare gate can tell
// "same machine, got slower" from "different machine". `--smoke` shrinks
// the sweep and rep count for CI.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/meta.h"
#include "kern/elementwise.h"
#include "kern/gemm.h"
#include "kern/kern.h"
#include "tensor/tensor.h"

namespace {

using namespace fedml;

/// One point of the sweep: model shape, batch size, inner-step count.
struct Config {
  std::string name;      ///< stable key used in table rows and JSON metrics
  std::size_t dim;       ///< input dimension (0 ⇒ MLP 196→64→10)
  std::size_t batch;     ///< rows in both the train and test split
  std::size_t inner;     ///< inner SGD steps differentiated through
};

struct Workload {
  std::shared_ptr<nn::Module> model;
  nn::ParamList theta0;
  data::Dataset train;
  data::Dataset test;
};

data::Dataset random_dataset(std::size_t n, std::size_t dim,
                             std::size_t classes, util::Rng& rng) {
  data::Dataset d;
  d.x = tensor::Tensor(n, dim, rng.normal_vector(n * dim));
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) d.y[i] = i % classes;
  return d;
}

Workload make_workload(const Config& c, std::uint64_t seed) {
  constexpr std::size_t kClasses = 10;
  Workload w;
  if (c.dim == 0) {
    w.model = nn::make_mlp(196, {64}, kClasses);
  } else {
    w.model = nn::make_softmax_regression(c.dim, kClasses);
  }
  util::Rng init(seed);
  w.theta0 = w.model->init_params(init);
  const std::size_t dim = c.dim == 0 ? 196 : c.dim;
  util::Rng data_rng(seed ^ 0x5eed);
  w.train = random_dataset(c.batch, dim, kClasses, data_rng);
  w.test = random_dataset(c.batch, dim, kClasses, data_rng);
  return w;
}

/// Median wall time in ms of `fn`, self-calibrating the inner iteration
/// count so each rep runs ≥ `min_rep_ms` (keeps short configs above timer
/// noise without making the big ones crawl).
double time_median_ms(std::size_t reps, double min_rep_ms,
                      const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: page in buffers
  auto once = [&] {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  const double probe = once();
  const auto iters = static_cast<std::size_t>(
      std::max(1.0, min_rep_ms / std::max(probe, 1e-6)));
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const auto t1 = clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times one config's full meta-gradient step in the given mode.
double meta_step_ms(const Workload& w, const Config& c, kern::Mode m,
                    std::size_t reps) {
  kern::ScopedMode scoped(m);
  const std::vector<const data::Dataset*> tests{&w.test};
  return time_median_ms(reps, 2.0, [&] {
    const auto g = core::meta_gradient_multistep(*w.model, w.theta0, w.train,
                                                 tests, 0.01, c.inner);
    FEDML_CHECK(!g.empty(), "meta_gradient returned nothing");
  });
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const auto reps =
      static_cast<std::size_t>(cli.get_int("reps", smoke ? 3 : 9));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string csv = cli.get_string("csv", "");
  const std::string json_dir = cli.get_string("json-dir", ".");
  cli.finish();

  // -- sweep: model size × batch × inner steps ------------------------------
  std::vector<Config> configs;
  const std::vector<std::size_t> dims =
      smoke ? std::vector<std::size_t>{60} : std::vector<std::size_t>{60, 196, 784};
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{20} : std::vector<std::size_t>{20, 100};
  const std::vector<std::size_t> inners =
      smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 5};
  for (const auto d : dims)
    for (const auto b : batches)
      for (const auto s : inners)
        configs.push_back({"softmax_d" + std::to_string(d) + "_b" +
                               std::to_string(b) + "_s" + std::to_string(s),
                           d, b, s});
  if (!smoke) configs.push_back({"mlp196x64_b20_s1", 0, 20, 1});

  bench::BenchMetrics metrics;
  metrics.emplace_back(
      "hardware_threads",
      static_cast<double>(std::thread::hardware_concurrency()));

  // -- section 1: full second-order meta-gradient step ----------------------
  util::Table t({"config", "compat ms", "fast ms", "speedup"});
  double worst_speedup = 1e300;
  for (const auto& c : configs) {
    const auto w = make_workload(c, seed);
    const double compat = meta_step_ms(w, c, kern::Mode::kCompat, reps);
    const double fast = meta_step_ms(w, c, kern::Mode::kFast, reps);
    const double speedup = compat / fast;
    worst_speedup = std::min(worst_speedup, speedup);
    t.add_row({c.name, compat, fast, speedup});
    metrics.emplace_back("meta_" + c.name + "_compat_ms", compat);
    metrics.emplace_back("meta_" + c.name + "_fast_ms", fast);
    metrics.emplace_back("meta_" + c.name + "_speedup", speedup);
  }
  bench::emit(t,
              "Full second-order meta-gradient step — compat vs fast "
              "dispatch (" + std::to_string(reps) + " reps, median)",
              csv);
  metrics.emplace_back("meta_speedup_min", worst_speedup);

  // -- section 2: raw gemm on the sweep's dominant shapes -------------------
  {
    util::Table g({"shape m.k.n", "compat ms", "fast ms", "speedup"});
    struct Shape { std::size_t m, k, n; };
    const std::vector<Shape> shapes =
        smoke ? std::vector<Shape>{{20, 60, 10}}
              : std::vector<Shape>{{20, 784, 10}, {100, 784, 10},
                                   {784, 20, 10}, {196, 196, 64}};
    util::Rng rng(seed ^ 0x9e77);
    for (const auto& s : shapes) {
      const auto a = rng.normal_vector(s.m * s.k);
      const auto b = rng.normal_vector(s.k * s.n);
      std::vector<double> out(s.m * s.n);
      auto run = [&](kern::Mode m) {
        return time_median_ms(reps, 1.0, [&] {
          kern::gemm(s.m, s.n, s.k, a.data(), b.data(), out.data(), m);
        });
      };
      const double compat = run(kern::Mode::kCompat);
      const double fast = run(kern::Mode::kFast);
      const std::string label = std::to_string(s.m) + "." +
                                std::to_string(s.k) + "." +
                                std::to_string(s.n);
      g.add_row({label, compat, fast, compat / fast});
      metrics.emplace_back("gemm_" + label + "_speedup", compat / fast);
    }
    bench::emit(g, "Raw kern::gemm, dominant sweep shapes", csv);
  }

  // -- section 3: fused sigmoid-VJP chain vs three-pass temporaries ---------
  {
    const std::size_t n = smoke ? std::size_t{4096} : std::size_t{65536};
    util::Rng rng(seed ^ 0xfaded);
    const auto gvec = rng.normal_vector(n);
    auto svec = rng.normal_vector(n);
    kern::sigmoid(n, svec.data(), svec.data());
    std::vector<double> out(n);
    const double chained = time_median_ms(reps, 1.0, [&] {
      // The legacy graph shape: three tensor temporaries, three passes.
      const tensor::Tensor s(1, n, svec);
      const tensor::Tensor ones(1, n, std::vector<double>(n, 1.0));
      const tensor::Tensor d1 = ones - s;
      const tensor::Tensor d2 = tensor::hadamard(s, d1);
      const tensor::Tensor d3 = tensor::hadamard(tensor::Tensor(1, n, gvec), d2);
      out[0] = d3.flat()[0];
    });
    const double fused = time_median_ms(reps, 1.0, [&] {
      kern::sigmoid_mul(n, gvec.data(), svec.data(), out.data());
    });
    util::Table f({"chain", "3-pass ms", "fused ms", "speedup"});
    f.add_row({"sigmoid vjp n=" + std::to_string(n), chained, fused,
               chained / fused});
    bench::emit(f, "Fused elementwise VJP vs tensor-temporary chain", csv);
    // n is part of the key: smoke and full runs measure different cache
    // regimes, so --compare must not match one against the other.
    metrics.emplace_back(
        "fused_sigmoid_vjp_n" + std::to_string(n) + "_speedup",
        chained / fused);
  }

  bench::write_bench_json("meta_step", metrics, json_dir);
  return 0;
}

#include "common.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>

#include "core/algorithms.h"
#include "core/meta.h"
#include "data/mnist_like.h"
#include "kern/gemm.h"
#include "obs/histogram.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

void Outcome::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: gate failed: " << what << "\n";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(const std::vector<double>& samples, double q) {
  return fedml::obs::exact_percentile(samples, q);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool bitwise_equal(const fedml::nn::ParamList& a,
                   const fedml::nn::ParamList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i].value();
    const auto& y = b[i].value();
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    if (std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

double max_abs_diff(const fedml::nn::ParamList& a,
                    const fedml::nn::ParamList& b) {
  FEDML_CHECK(a.size() == b.size(), "max_abs_diff: parameter count differs");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, fedml::tensor::max_abs_diff(a[i].value(),
                                                        b[i].value()));
  return worst;
}

std::vector<double> span_ms(const std::vector<fedml::obs::SpanRecord>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back((s.end_s - s.start_s) * 1e3);
  return out;
}

MnistFederation::MnistFederation(std::size_t sources, std::uint64_t seed) {
  fedml::data::MnistLikeConfig dc;
  dc.num_nodes = sources + kTargets;
  dc.side = kSide;
  dc.num_classes = kClasses;
  dc.seed = seed;
  const fedml::data::FederatedDataset fd = fedml::data::make_mnist_like(dc);
  std::vector<std::size_t> source_ids(sources), target_ids(kTargets);
  std::iota(source_ids.begin(), source_ids.end(), std::size_t{0});
  std::iota(target_ids.begin(), target_ids.end(), sources);
  fedml::util::Rng rng(seed ^ 0x7a11'5eedull);
  this->sources = fedml::fed::make_edge_nodes(fd, source_ids, kShots, rng);
  targets = fedml::fed::make_edge_nodes(fd, target_ids, kShots, rng);
  model = fedml::nn::make_mlp(fd.input_dim, {kHidden}, fd.num_classes);
  theta0 = model->init_params(rng);
}

double MnistFederation::source_meta_loss(
    const fedml::nn::ParamList& theta) const {
  return fedml::core::global_meta_loss(*model, theta, sources, kAlpha);
}

double MnistFederation::target_meta_loss(
    const fedml::nn::ParamList& theta) const {
  return fedml::core::global_meta_loss(*model, theta, targets, kAlpha);
}

double MnistFederation::target_adapted_accuracy(
    const fedml::nn::ParamList& theta) const {
  double total = 0.0;
  for (const auto& n : targets) {
    const fedml::nn::ParamList phi =
        fedml::core::adapt(*model, theta, n.data.train, kAlpha, kAdaptSteps);
    total += fedml::core::empirical_accuracy(*model, phi, n.data.test);
  }
  return total / static_cast<double>(targets.size());
}

double kern_gemm_gflops(std::size_t in, std::size_t hidden,
                        std::size_t classes, double budget_s) {
  namespace kern = fedml::kern;
  // One meta-step's dense shapes: forward on the K-shot support batch and
  // the larger query batch, then the dW = Xᵀ·G and dX = G·Wᵀ backward
  // products of both layers.
  struct Shape {
    char kind;  // 'n' = gemm, 't' = gemm_tn, 'x' = gemm_nt
    std::size_t m, n, k;
  };
  std::vector<Shape> shapes;
  for (const std::size_t batch : {std::size_t{5}, std::size_t{32}}) {
    shapes.push_back({'n', batch, hidden, in});
    shapes.push_back({'n', batch, classes, hidden});
    shapes.push_back({'t', in, hidden, batch});
    shapes.push_back({'t', hidden, classes, batch});
    shapes.push_back({'x', batch, hidden, classes});
    shapes.push_back({'x', batch, in, hidden});
  }
  std::size_t max_elems = 0;
  double flops_per_pass = 0.0;
  for (const auto& s : shapes) {
    max_elems = std::max({max_elems, s.m * s.k, s.k * s.n, s.n * s.k,
                          s.m * s.n});
    flops_per_pass += 2.0 * static_cast<double>(s.m * s.n * s.k);
  }
  fedml::util::Rng rng(0x6e33);
  std::vector<double> a(max_elems), b(max_elems), c(max_elems, 0.0);
  for (auto& v : a) v = rng.uniform() - 0.5;
  for (auto& v : b) v = rng.uniform() - 0.5;

  const kern::Mode mode = kern::mode();
  const auto pass = [&] {
    for (const auto& s : shapes) {
      std::fill(c.begin(), c.begin() + static_cast<long>(s.m * s.n), 0.0);
      switch (s.kind) {
        case 'n': kern::gemm(s.m, s.n, s.k, a.data(), b.data(), c.data(), mode); break;
        case 't': kern::gemm_tn(s.m, s.n, s.k, a.data(), b.data(), c.data()); break;
        default: kern::gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c.data()); break;
      }
    }
  };
  pass();  // warm caches
  std::size_t passes = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    for (int i = 0; i < 8; ++i) pass();
    passes += 8;
    elapsed = now_s() - t0;
  }
  return flops_per_pass * static_cast<double>(passes) / elapsed / 1e9;
}

}  // namespace perfbench

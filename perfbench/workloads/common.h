#pragma once

// Shared pieces of the workload runner: the result every workload fills,
// timing and percentile helpers, and the exact-equality check the
// correctness gates use.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fed/node.h"
#include "nn/module.h"
#include "nn/params.h"
#include "obs/trace.h"

namespace perfbench {

/// Command line of one workload run (see run.py for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for traced runs ("" = none)
};

/// What one workload run reports. Metrics are printed by name in the order
/// added; `config` lands in the provenance line (thread and connection
/// counts, sizes).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> config;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// A failed gate fails the run; the message goes to stderr.
  void gate(bool ok, const std::string& what);
};

/// Seconds on the steady clock (the clock every span and latency uses).
double now_s();

/// Nearest-rank quantile (q in [0,1]) via obs::exact_percentile.
double quantile(const std::vector<double>& samples, double q);
double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// True when both parameter lists hold the same shapes and bit patterns.
bool bitwise_equal(const fedml::nn::ParamList& a, const fedml::nn::ParamList& b);

/// Largest |a - b| over all parameter entries (shapes must match).
double max_abs_diff(const fedml::nn::ParamList& a,
                    const fedml::nn::ParamList& b);

/// Durations in ms of every span named `name`.
std::vector<double> span_ms(const std::vector<fedml::obs::SpanRecord>& spans,
                            const std::string& name);

/// The MNIST-like family train-sync and fleet-tcp share: 28×28 inputs, 10
/// classes, power-law node sizes, an MLP 784-100-10, and held-out target
/// nodes that only the quality metrics read.
struct MnistFederation {
  static constexpr std::size_t kSide = 28;
  static constexpr std::size_t kClasses = 10;
  static constexpr std::size_t kHidden = 100;
  static constexpr std::size_t kShots = 5;
  static constexpr std::size_t kTargets = 120;
  static constexpr double kAlpha = 0.01;  ///< inner rate α
  static constexpr double kBeta = 0.01;   ///< meta rate β
  static constexpr std::size_t kAdaptSteps = 5;

  std::shared_ptr<fedml::nn::Module> model;
  std::vector<fedml::fed::EdgeNode> sources;  ///< the training federation
  std::vector<fedml::fed::EdgeNode> targets;  ///< held out
  fedml::nn::ParamList theta0;

  MnistFederation(std::size_t sources, std::uint64_t seed);

  /// G(θ) = Σ ω_i L(φ_i(θ), D_i^test) over the training federation.
  [[nodiscard]] double source_meta_loss(const fedml::nn::ParamList& theta) const;
  /// The same objective over the held-out targets.
  [[nodiscard]] double target_meta_loss(const fedml::nn::ParamList& theta) const;
  /// Mean query accuracy at the targets after kAdaptSteps steps from θ on
  /// each target's K-shot support set (the paper's fast adaptation).
  [[nodiscard]] double target_adapted_accuracy(
      const fedml::nn::ParamList& theta) const;
};

/// Replays the MLP's forward and backward gemm shapes through kern in the
/// mode the library ships with, for about `budget_s` seconds; returns
/// GFLOP/s computed from the shapes.
double kern_gemm_gflops(std::size_t in, std::size_t hidden,
                        std::size_t classes, double budget_s);

/// Runs `setup()` (which returns a std::unique_ptr) `reps` times, freeing
/// the previous result before each call, and stores the median wall time of
/// the calls in `median_s`; returns the last result.
template <typename Setup>
auto timed_setups(int reps, double& median_s, Setup setup) -> decltype(setup()) {
  std::vector<double> times;
  decltype(setup()) result;
  for (int i = 0; i < reps; ++i) {
    result.reset();
    const double t0 = now_s();
    result = setup();
    times.push_back(now_s() - t0);
  }
  median_s = median(times);
  return result;
}

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

Outcome run_train_sync(const Options& opt, fedml::obs::Tracer* tracer);
Outcome run_fleet_tcp(const Options& opt, fedml::obs::Tracer* tracer);
Outcome run_serve_rec(const Options& opt, fedml::obs::Tracer* tracer);

}  // namespace perfbench

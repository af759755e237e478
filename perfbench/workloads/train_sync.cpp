// train-sync: in-process Algorithm 1 through core::train_fedml.
//
// Why: compute-bound. kern, autodiff and core do almost all the work while
// net and serve are bypassed, and with 20 nodes on a 2-thread pool the
// rounds show pool stragglers. Op: one node meta-step.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common.h"
#include "core/algorithms.h"
#include "core/meta.h"
#include "fed/platform.h"
#include "nn/optimizer.h"
#include "obs/telemetry.h"

namespace perfbench {
namespace {

using namespace fedml;

constexpr std::size_t kNodes = 20;
constexpr std::size_t kT0 = 5;
constexpr std::size_t kThreads = 2;
/// Iterations per train_fedml call: 4 aggregation rounds, 400 meta-steps.
constexpr std::size_t kIterations = 20;
constexpr double kAlpha = MnistFederation::kAlpha;
constexpr double kBeta = MnistFederation::kBeta;

struct Setup {
  MnistFederation mnist;
  double initial_loss = 0.0;  ///< G(θ0) over the training federation
  explicit Setup(std::uint64_t seed) : mnist(kNodes, seed) {}
};

core::FedMLConfig fedml_config(std::size_t iterations,
                               obs::Telemetry* telemetry) {
  core::FedMLConfig cfg;
  cfg.alpha = kAlpha;
  cfg.beta = kBeta;
  cfg.total_iterations = iterations;
  cfg.local_steps = kT0;
  cfg.order = core::MetaOrder::kSecondOrder;
  cfg.threads = kThreads;
  cfg.track_loss = false;
  cfg.telemetry = telemetry;
  return cfg;
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>(seed);
  s->initial_loss = s->mnist.source_meta_loss(s->mnist.theta0);
  // Warm-up: one aggregation round, so allocator pools and caches are in
  // the state the timed calls find them in.
  (void)core::train_fedml(*s->mnist.model, s->mnist.sources, s->mnist.theta0,
                          fedml_config(kT0, nullptr));
  return s;
}

struct UntracedPhase {
  std::vector<double> call_rates;  ///< meta-steps/s of each call
  std::vector<double> step_ms;     ///< per-step latency samples
  std::size_t calls = 0;
  std::size_t steps = 0;
  core::TrainResult first;
};

/// Repeated train_fedml calls over the same inputs for `seconds`. The
/// per-step latency comes from train_fedml's own core.fedml.step_ms
/// histogram, the only per-step observation point its interface offers.
UntracedPhase run_untraced(const Setup& s, double seconds, Outcome& out) {
  UntracedPhase p;
  obs::Telemetry tel;
  obs::Histogram::Config hc;
  hc.retain_samples = true;
  hc.max_retained = std::size_t{1} << 22;
  auto& step_hist = tel.metrics.histogram("core.fedml.step_ms", hc);
  const core::FedMLConfig cfg = fedml_config(kIterations, &tel);
  const std::size_t steps_per_call = kIterations * s.mnist.sources.size();
  const double start = now_s();
  while (p.calls == 0 || now_s() - start < seconds) {
    const double t0 = now_s();
    core::TrainResult r = core::train_fedml(*s.mnist.model, s.mnist.sources,
                                            s.mnist.theta0, cfg);
    const double dt = now_s() - t0;
    p.call_rates.push_back(static_cast<double>(steps_per_call) / dt);
    if (p.calls == 0) {
      p.first = std::move(r);
    } else {
      out.gate(bitwise_equal(r.theta, p.first.theta),
               "train_fedml is not deterministic across identical calls");
    }
    ++p.calls;
    p.steps += steps_per_call;
  }
  p.step_ms = step_hist.snapshot().samples;
  return p;
}

/// What the traced replay measured; see run_traced.
struct TracedPhase {
  std::vector<double> round_ms;
  std::vector<double> overhead_ms;  ///< round minus the busiest worker
  double busy_s = 0.0;              ///< Σ step time over all workers
  double round_s = 0.0;             ///< Σ round time
  double rate = 0.0;                ///< meta-steps/s
  std::size_t steps = 0;
};

/// Traced replay of train_fedml's step through fed::Platform::run, with
/// spans around every layer call; each call's θ must equal `reference`.
TracedPhase run_traced(const Setup& s, const nn::ParamList& reference,
                       double seconds, obs::Tracer& tracer, Outcome& out) {
  TracedPhase p;
  const std::size_t rounds_per_call = kIterations / kT0;
  // [start, end] of every round on the steady clock, calls back to back.
  std::vector<std::pair<double, double>> rounds;
  const double start = now_s();
  double timed = 0.0;
  std::size_t call = 0;
  while (call == 0 || now_s() - start < seconds) {
    fed::Platform::Config pc;
    pc.total_iterations = kIterations;
    pc.local_steps = kT0;
    pc.threads = kThreads;
    fed::Platform platform(s.mnist.sources, pc);
    platform.broadcast(s.mnist.theta0);
    std::unordered_map<std::size_t, std::unique_ptr<nn::Optimizer>> opts;
    for (const auto& n : s.mnist.sources)
      opts.emplace(n.id, nn::make_optimizer(nn::OptimizerKind::kSgd, kBeta));
    const double call_id = static_cast<double>(call);
    const auto step = [&](fed::EdgeNode& node, std::size_t t) {
      obs::TraceSpan whole = tracer.span("fed.local_step");
      whole.arg("call", call_id);
      whole.arg("iteration", static_cast<double>(t));
      whole.arg("node", static_cast<double>(node.id));
      {
        obs::TraceSpan sp = tracer.span("data.resample_support");
        node.resample_support();
      }
      nn::ParamList g;
      {
        obs::TraceSpan sp = tracer.span("core.meta_gradient");
        g = core::meta_gradient(*s.mnist.model, node.params, node.data.train,
                                node.data.test, kAlpha,
                                core::MetaOrder::kSecondOrder);
      }
      obs::TraceSpan sp = tracer.span("nn.optimizer_step");
      node.params = opts.at(node.id)->step(node.params, g);
    };
    double last = now_s();
    const double call_start = last;
    const auto hook = [&](std::size_t, const nn::ParamList&) {
      const double t = now_s();
      rounds.emplace_back(last, t);
      last = t;
    };
    obs::TraceSpan call_span = tracer.span("bench.train_call");
    (void)platform.run(step, hook);
    call_span.end();
    timed += last - call_start;
    out.gate(bitwise_equal(platform.global_params(), reference),
             "traced replay θ differs from train_fedml θ");
    ++call;
  }
  p.steps = call * kIterations * s.mnist.sources.size();
  p.rate = static_cast<double>(p.steps) / timed;

  // Per round: busy time of each worker lane, from the step spans.
  const auto spans = tracer.snapshot();
  std::map<std::pair<std::size_t, std::uint32_t>, double> busy;  // (round, lane)
  for (const auto& sp : spans) {
    if (sp.name != "fed.local_step") continue;
    double c = 0.0, it = 0.0;
    for (const auto& [k, v] : sp.args) {
      if (k == "call") c = v;
      if (k == "iteration") it = v;
    }
    const std::size_t round = static_cast<std::size_t>(c) * rounds_per_call +
                              (static_cast<std::size_t>(it) - 1) / kT0;
    busy[{round, sp.track}] += sp.end_s - sp.start_s;
  }
  std::vector<double> busiest(rounds.size(), 0.0);
  for (const auto& [key, b] : busy) {
    busiest.at(key.first) = std::max(busiest.at(key.first), b);
    p.busy_s += b;
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const double len = rounds[r].second - rounds[r].first;
    p.round_ms.push_back(len * 1e3);
    p.overhead_ms.push_back((len - busiest[r]) * 1e3);
    p.round_s += len;
  }
  return p;
}

}  // namespace

Outcome run_train_sync(const Options& opt, obs::Tracer* tracer) {
  Outcome out;
  out.config = {{"nodes", kNodes},
                {"target_nodes", MnistFederation::kTargets},
                {"pool_threads", kThreads},
                {"T0", kT0},
                {"iterations_per_call", kIterations}};
  double setup_s = 0.0;
  const auto s = timed_setups(opt.trace ? 1 : kSetupReps, setup_s,
                              [&] { return make_setup(opt.seed); });

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  UntracedPhase u = run_untraced(*s, untraced_s, out);
  out.attempted = u.steps;
  out.gate(s->mnist.source_meta_loss(u.first.theta) < s->initial_loss,
           "training meta-loss G(theta) did not fall below G(theta0)");
  const double final_loss = s->mnist.target_meta_loss(u.first.theta);
  const double untraced_rate = median(u.call_rates);

  if (!opt.trace) {
    const auto& comm = u.first.comm;
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", untraced_rate, "1/s");
    out.metric("latency_ms_p50", quantile(u.step_ms, 0.50), "ms");
    out.metric("final_meta_loss", final_loss, "nats");
    out.metric("wire_kb_per_round",
               (comm.bytes_up + comm.bytes_down) /
                   static_cast<double>(comm.aggregations) / 1e3,
               "KB");
    out.metric("adapted_accuracy",
               s->mnist.target_adapted_accuracy(u.first.theta), "fraction");
    return out;
  }

  TracedPhase t = run_traced(*s, u.first.theta, opt.seconds / 2, *tracer, out);
  out.attempted += t.steps;
  const auto spans = tracer->snapshot();
  const std::vector<double> mg = span_ms(spans, "core.meta_gradient");
  const std::vector<double> steps = span_ms(spans, "fed.local_step");
  const double parts = mean(span_ms(spans, "data.resample_support")) +
                       mean(mg) + mean(span_ms(spans, "nn.optimizer_step"));
  const double lanes_s = static_cast<double>(kThreads) * t.round_s;
  out.metric("core.meta_gradient_ms_p50", median(mg), "ms");
  out.metric("core.meta_gradient_calls", static_cast<double>(mg.size()),
             "count");
  out.metric("core.meta_gradient_share",
             mean(mg) * static_cast<double>(mg.size()) / 1e3 / lanes_s,
             "fraction");
  out.metric("nn.optimizer_step_ms_p50",
             median(span_ms(spans, "nn.optimizer_step")), "ms");
  out.metric("fed.round_ms_p50", median(t.round_ms), "ms");
  out.metric("fed.platform_overhead_ms", median(t.overhead_ms), "ms");
  out.metric("fed.pool_idle_share", 1.0 - t.busy_s / lanes_s, "fraction");
  const double gap = 1.0 - parts / mean(steps);
  out.metric("trace.parts_gap_share", gap, "fraction");
  out.gate(std::abs(gap) <= 0.05,
           "step parts (resample + meta_gradient + optimizer) differ from "
           "the step span by more than 5%");
  out.metric("op.latency_ms_p95", quantile(u.step_ms, 0.95), "ms");
  out.metric("op.latency_ms_p99", quantile(u.step_ms, 0.99), "ms");
  out.metric("trace.overhead_share", 1.0 - t.rate / untraced_rate, "fraction");
  out.metric("kern.gemm_gflops",
             kern_gemm_gflops(MnistFederation::kSide * MnistFederation::kSide,
                              MnistFederation::kHidden,
                              MnistFederation::kClasses, 0.5),
             "GFLOP/s");
  return out;
}

}  // namespace perfbench

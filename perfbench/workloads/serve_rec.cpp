// serve-rec: the target side. A federated meta-init for the recommendation
// workload is published into serve::ModelRegistry and served per user
// through serve::AdaptationServer.
//
// Why: serve queueing, the AdaptedCache and registry reads and writes
// dominate, and the rec model is too small for kern to matter. The same θ is
// re-published every kPublishEvery requests; each publish is a new version
// that invalidates the cache, so both the hit and the miss path run.
// Op: one served request, from 2 closed-loop clients replaying a Zipf(0.9)
// user stream over 1M users.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/meta.h"
#include "data/recsys.h"
#include "rec/config.h"
#include "rec/workload.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace fedml;

constexpr std::size_t kClients = 2;
constexpr std::size_t kServeThreads = 2;
constexpr std::size_t kTrainThreads = 2;
constexpr std::size_t kStream = 20000;  ///< pre-built requests, replayed cyclically
constexpr std::size_t kPublishEvery = 2000;
constexpr std::size_t kWarmupRequests = 4000;
/// Throughput and latency percentiles are taken per window of this many
/// seconds and reported as the median over the run's full windows, so a
/// burst of interference on the shared host moves one window, not the run.
constexpr double kWindowS = 2.0;
/// Traced runs record one client span per this many requests.
constexpr std::size_t kSpanEvery = 8;

struct Setup {
  rec::Config cfg;
  std::unique_ptr<data::RecSys> rec;
  std::shared_ptr<nn::Module> model;
  core::TrainResult trained;
  double train_s = 0.0;
  std::vector<serve::AdaptRequest> stream;
  std::vector<std::uint64_t> stream_users;  ///< user id of each stream entry
  std::vector<double> make_request_ms;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::AdaptationServer> server;  ///< after registry: destroyed first
};

/// What the clients observed, merged over both.
struct Loop {
  std::vector<double> latency_ms;  ///< client-observed submit → response
  std::vector<double> done_s;      ///< completion time since the loop started
  std::vector<double> queue_ms, adapt_ms, server_ms, overhead_ms, rest_ms;
  std::vector<double> publish_ms;
  std::vector<std::uint32_t> served_per_entry = std::vector<std::uint32_t>(kStream);
  std::vector<double> accuracy_per_entry = std::vector<double>(kStream);  ///< Σ
  std::size_t attempted = 0, served = 0, bad = 0;
  double accuracy_sum = 0.0;
  double seconds = 0.0;
};

/// Closed loop: every client submits its next request only after the
/// previous one is answered. Runs until `seconds` pass or `max_requests`
/// are issued, whichever is first.
Loop closed_loop(Setup& s, std::atomic<std::size_t>& next, double seconds,
                 std::size_t max_requests, obs::Tracer* tracer) {
  Loop total;
  std::mutex merge;
  const double start = now_s();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Loop l;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= max_requests || now_s() - start >= seconds) break;
        if (i > 0 && i % kPublishEvery == 0) {
          obs::TraceSpan sp;
          if (tracer != nullptr) sp = tracer->span("serve.registry_publish");
          const double t0 = now_s();
          s.registry->publish(s.trained.theta);
          l.publish_ms.push_back((now_s() - t0) * 1e3);
        }
        const std::size_t j = i % kStream;
        obs::TraceSpan sp;
        if (tracer != nullptr && i % kSpanEvery == 0)
          sp = tracer->span("serve.client_request");
        ++l.attempted;
        const double t0 = now_s();
        std::future<serve::AdaptResponse> f = s.server->submit(s.stream[j]);
        // Poll rather than block: on a shared VM, waking a sleeping client
        // thread adds a run-dependent 0.1-0.5 ms that belongs to the load
        // generator, not the server (p99 moved 0.59 -> 0.96 ms between two
        // runs of one seed with blocking waits, 0.51 -> 0.48 ms polling).
        while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        }
        serve::AdaptResponse r = f.get();
        const double ms = (now_s() - t0) * 1e3;
        sp.end();
        if (r.status != serve::RequestStatus::kServed) continue;
        ++l.served;
        ++l.served_per_entry[j];
        l.accuracy_per_entry[j] += r.eval_accuracy;
        if (r.predictions.size() != s.stream[j].eval.size()) ++l.bad;
        l.accuracy_sum += r.eval_accuracy;
        l.latency_ms.push_back(ms);
        l.done_s.push_back(now_s() - start);
        l.queue_ms.push_back(r.queue_s * 1e3);
        if (!r.cache_hit) l.adapt_ms.push_back(r.adapt_s * 1e3);
        l.server_ms.push_back(r.total_s * 1e3);
        l.overhead_ms.push_back(ms - r.total_s * 1e3);
        l.rest_ms.push_back((r.total_s - r.queue_s - r.adapt_s) * 1e3);
      }
      std::lock_guard<std::mutex> lock(merge);
      const auto append = [](std::vector<double>& to,
                             const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(total.latency_ms, l.latency_ms);
      append(total.done_s, l.done_s);
      append(total.queue_ms, l.queue_ms);
      append(total.adapt_ms, l.adapt_ms);
      append(total.server_ms, l.server_ms);
      append(total.overhead_ms, l.overhead_ms);
      append(total.rest_ms, l.rest_ms);
      append(total.publish_ms, l.publish_ms);
      for (std::size_t j = 0; j < kStream; ++j) {
        total.served_per_entry[j] += l.served_per_entry[j];
        total.accuracy_per_entry[j] += l.accuracy_per_entry[j];
      }
      total.attempted += l.attempted;
      total.served += l.served;
      total.bad += l.bad;
      total.accuracy_sum += l.accuracy_sum;
    });
  }
  for (auto& c : clients) c.join();
  s.server->drain();
  total.seconds = now_s() - start;
  return total;
}

/// Median over the full kWindowS windows of the loop of each window's
/// served rate and latency percentiles.
struct Windowed {
  double rate = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Windowed windowed(const Loop& l) {
  // A loop shorter than one window is one window of its own length.
  const double len = std::min(kWindowS, l.seconds);
  const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(l.seconds / len));
  std::vector<std::vector<double>> windows(n);
  for (std::size_t i = 0; i < l.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(l.done_s[i] / len);
    if (w < n) windows[w].push_back(l.latency_ms[i]);
  }
  std::vector<double> rate, p50, p95, p99;
  for (const auto& w : windows) {
    rate.push_back(static_cast<double>(w.size()) / len);
    p50.push_back(quantile(w, 0.50));
    p95.push_back(quantile(w, 0.95));
    p99.push_back(quantile(w, 0.99));
  }
  return {median(rate), median(p50), median(p95), median(p99)};
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->cfg.seed = seed;
  s->cfg.threads = kTrainThreads;
  s->cfg.serve_threads = kServeThreads;
  s->cfg.traffic_zipf = 0.9;
  // Per-user taste dominates the shared taste (as in the repo's
  // personalization test) and adaptation takes 5 steps at rate 0.5. At the
  // defaults the gain on held-out users is -0.1 to +0.7 points depending on
  // the seed, so the adapted-beats-global gate would read noise; here it is
  // 2 to 6 points.
  s->cfg.pref_scale = 1.5;
  s->cfg.adapt_alpha = 0.5;
  s->cfg.adapt_steps = 5;
  s->cfg.validate();
  s->rec = std::make_unique<data::RecSys>(s->cfg.dataset());
  s->model = rec::make_model(s->cfg);
  const double t0 = now_s();
  s->trained = rec::train_meta_init(s->cfg, *s->rec, *s->model);
  s->train_s = now_s() - t0;

  const util::ZipfSampler users(s->cfg.users, s->cfg.traffic_zipf);
  util::Rng rng(seed ^ 0x5e7e'0057ull);
  s->stream.reserve(kStream);
  s->make_request_ms.reserve(kStream);
  for (std::size_t i = 0; i < kStream; ++i) {
    const auto uid = static_cast<std::uint64_t>(users.sample(rng));
    s->stream_users.push_back(uid);
    const double r0 = now_s();
    s->stream.push_back(rec::make_user_request(s->cfg, *s->rec, uid));
    s->make_request_ms.push_back((now_s() - r0) * 1e3);
  }

  s->registry = std::make_unique<serve::ModelRegistry>(
      s->model, s->cfg.registry_stripes);
  s->registry->publish(s->trained.theta);
  s->server = std::make_unique<serve::AdaptationServer>(*s->registry,
                                                        s->cfg.server());
  std::atomic<std::size_t> next{0};
  (void)closed_loop(*s, next, 1e9, kWarmupRequests, nullptr);
  return s;
}

}  // namespace

Outcome run_serve_rec(const Options& opt, obs::Tracer* tracer) {
  Outcome out;
  out.config = {{"clients", kClients},
                {"serve_threads", kServeThreads},
                {"train_threads", kTrainThreads},
                {"stream_requests", kStream},
                {"publish_every", kPublishEvery},
                {"users", 1e6},
                {"traffic_zipf", 0.9},
                {"pref_scale", 1.5},
                {"adapt_alpha", 0.5},
                {"adapt_steps", 5},
                {"window_s", kWindowS}};
  double setup_s = 0.0;
  const auto s = timed_setups(opt.trace ? 1 : kSetupReps, setup_s,
                              [&] { return make_setup(opt.seed); });

  // The stream position carries on from the warm-up, so publishes stay on
  // their fixed request grid.
  std::atomic<std::size_t> next{kWarmupRequests};
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Loop u = closed_loop(*s, next, untraced_s, SIZE_MAX, nullptr);

  std::vector<double> base_accuracy(kStream);
  for (std::size_t j = 0; j < kStream; ++j)
    base_accuracy[j] = core::empirical_accuracy(*s->model, s->trained.theta,
                                                s->stream[j].eval);
  // Adapted vs un-adapted accuracy per distinct user served, each user
  // counted once: the paper's claim is over tasks, and a traffic-weighted
  // mean is decided by the few heaviest Zipf users.
  const auto check = [&](const Loop& l) {
    out.attempted += l.attempted;
    out.failed += l.attempted - l.served;
    out.gate(l.served == l.attempted, "a request was shed");
    out.gate(l.bad == 0, "a response lacks one prediction per eval row");
    std::map<std::uint64_t, std::pair<double, double>> per_user;
    for (std::size_t j = 0; j < kStream; ++j) {
      if (l.served_per_entry[j] == 0) continue;
      per_user[s->stream_users[j]] = {
          l.accuracy_per_entry[j] / l.served_per_entry[j], base_accuracy[j]};
    }
    double adapted = 0.0, base = 0.0;
    for (const auto& [uid, acc] : per_user) {
      adapted += acc.first;
      base += acc.second;
    }
    const auto users = static_cast<double>(per_user.size());
    out.gate(adapted > base,
             "per-user adapted accuracy " + std::to_string(adapted / users) +
                 " does not beat the un-adapted meta-init's " +
                 std::to_string(base / users));
  };
  check(u);
  const Windowed uw = windowed(u);

  if (!opt.trace) {
    const auto& comm = s->trained.comm;
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", uw.rate, "1/s");
    out.metric("latency_ms_p50", uw.p50, "ms");
    out.metric("final_meta_loss", s->trained.history.back().global_loss,
               "nats");
    out.metric("wire_kb_per_round",
               (comm.bytes_up + comm.bytes_down) /
                   static_cast<double>(comm.aggregations) / 1e3,
               "KB");
    out.metric("adapted_accuracy",
               u.accuracy_sum / static_cast<double>(u.served), "fraction");
    return out;
  }

  const auto cache2 = s->server->cache_stats();
  Loop t = closed_loop(*s, next, opt.seconds / 2, SIZE_MAX, tracer);
  const auto cache3 = s->server->cache_stats();
  check(t);
  const double hits = static_cast<double>(cache3.hits - cache2.hits);
  const double misses = static_cast<double>(cache3.misses - cache2.misses);
  double negative = 0.0, total = 0.0;
  for (std::size_t i = 0; i < t.latency_ms.size(); ++i) {
    negative += std::max(0.0, -t.overhead_ms[i]) + std::max(0.0, -t.rest_ms[i]);
    total += t.latency_ms[i];
  }
  out.metric("serve.queue_ms_p50", quantile(t.queue_ms, 0.50), "ms");
  out.metric("serve.queue_ms_p99", quantile(t.queue_ms, 0.99), "ms");
  out.metric("serve.adapt_ms_p50", median(t.adapt_ms), "ms");
  out.metric("serve.server_ms_p50", median(t.server_ms), "ms");
  out.metric("serve.client_overhead_ms_p50", median(t.overhead_ms), "ms");
  out.metric("serve.cache_hit_ratio", hits / (hits + misses), "fraction");
  out.metric("serve.registry_publish_ms_p50", median(t.publish_ms), "ms");
  out.metric("serve.publishes", static_cast<double>(t.publish_ms.size()),
             "count");
  out.metric("serve.shed_share",
             static_cast<double>(t.attempted - t.served) /
                 static_cast<double>(t.attempted),
             "fraction");
  out.metric("rec.make_request_ms_p50", median(s->make_request_ms), "ms");
  out.metric("rec.train_meta_init_s", s->train_s, "s");
  // queue + adapt + rest = server total and server total + client overhead
  // = client latency hold by construction; the check is that neither
  // remainder is negative, i.e. the two clocks nest.
  const double gap = negative / total;
  out.metric("trace.parts_gap_share", gap, "fraction");
  out.gate(gap <= 0.05, "request parts do not nest inside the client latency");
  out.metric("op.latency_ms_p95", uw.p95, "ms");
  out.metric("op.latency_ms_p99", uw.p99, "ms");
  out.metric("trace.overhead_share",
             1.0 - windowed(t).rate / uw.rate,
             "fraction");
  out.metric("kern.gemm_gflops",
             kern_gemm_gflops(MnistFederation::kSide * MnistFederation::kSide,
                              MnistFederation::kHidden,
                              MnistFederation::kClasses, 0.5),
             "GFLOP/s");
  return out;
}

}  // namespace perfbench

// Workload runner: runs one workload and prints, as its last two lines, a
// provenance object and the result object run.py passes on.
//
//   perfbench_workloads --workload train-sync|fleet-tcp|serve-rec --seed N
//                       --seconds S --trace 0|1 [--trace-out PATH]
//
// The runner measures the library as it ships: it never changes the kern
// dispatch mode or parallel policy.

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "kern/kern.h"
#include "obs/export.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_workloads: " << why
            << "\nusage: perfbench_workloads --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
        have[0] = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
        have[1] = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
        have[2] = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
        have[3] = true;
      } else if (key == "--trace-out") {
        o.trace_out = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  for (bool h : have)
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20) os << ' ';
    else os << c;
  }
  os << '"';
  return os.str();
}

/// First value of `key` in /proc/cpuinfo ("" when absent).
std::string cpuinfo(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    return line.substr(line.find_first_not_of(" \t", colon + 1));
  }
  return "";
}

/// The ISA extensions the kernels can use, as listed by the host.
std::string isa_flags() {
  std::istringstream flags(cpuinfo("flags"));
  const std::set<std::string> wanted = {"sse4_2",   "avx",      "avx2",
                                        "fma",      "avx512f",  "avx512dq",
                                        "avx512bw", "avx512vl", "neon"};
  std::string out, f;
  while (flags >> f) {
    if (wanted.count(f) == 0) continue;
    if (!out.empty()) out += ' ';
    out += f;
  }
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_provenance(const Options& o, const Outcome& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"provenance\": {\"workload\": " << json_string(o.workload)
     << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"cpu_model\": " << json_string(cpuinfo("model name"))
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"isa\": " << json_string(isa_flags())
     << ", \"compiler\": " << json_string(kCompiler)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"kern_native\": " << json_string(PERFBENCH_KERN_NATIVE)
     << ", \"kern_mode\": "
     << json_string(fedml::kern::mode() == fedml::kern::Mode::kFast
                        ? "fast"
                        : "compat")
     << ", \"kern_parallel_pool\": "
     << (fedml::kern::parallel_policy().pool != nullptr ? "true" : "false");
  for (const auto& [k, v] : r.config) os << ", " << json_string(k) << ": " << v;
  os << "}}";
  std::cout << os.str() << "\n";
}

/// train-sync's traced run also runs fleet-tcp, the lockstep TCP fleet over
/// the same data family and model, for the net layer's metrics, half the time
/// each. fleet-tcp is not a workload of its own in BENCHMARK.json: its round
/// time moves with the shared host's contention by more than any bound a
/// metric may have (perfbench/BENCHMARK.md), but its layers and its gates
/// still run here.
Outcome run_train_sync_traced(const Options& opt, fedml::obs::Tracer* tracer) {
  Options half = opt;
  half.seconds = opt.seconds / 2;
  Outcome r = perfbench::run_train_sync(half, tracer);
  const Outcome fleet = perfbench::run_fleet_tcp(half, tracer);
  for (const auto& m : fleet.metrics)
    if (m.first.rfind("net.", 0) == 0 || m.first == "fed.merge_ms")
      r.metrics.push_back(m);
  r.correct = r.correct && fleet.correct;
  r.attempted += fleet.attempted;
  r.failed += fleet.failed;
  for (const auto& [k, v] : fleet.config) r.config.push_back({"fleet." + k, v});
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  fedml::obs::Tracer tracer;
  fedml::obs::Tracer* const tr = opt.trace ? &tracer : nullptr;

  Outcome r;
  try {
    if (opt.workload == "train-sync" && opt.trace) r = run_train_sync_traced(opt, tr);
    else if (opt.workload == "train-sync") r = perfbench::run_train_sync(opt, tr);
    else if (opt.workload == "fleet-tcp") r = perfbench::run_fleet_tcp(opt, tr);
    else if (opt.workload == "serve-rec") r = perfbench::run_serve_rec(opt, tr);
    else usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workloads: " << opt.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }

  if (opt.trace && !opt.trace_out.empty())
    fedml::obs::write_chrome_trace_file(opt.trace_out, tracer.snapshot());
  for (auto& m : r.metrics) {
    if (!std::isfinite(m.second.first)) {
      r.gate(false, "metric " + m.first + " is not finite");
      m.second.first = 0.0;
    }
  }

  print_provenance(opt, r);
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    os << (i == 0 ? "" : ", ") << json_string(name) << ": {\"value\": "
       << vu.first << ", \"unit\": " << json_string(vu.second) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

#!/usr/bin/env bash
# CI entry point, fail-fast in dependency order:
#   1. fedcheck — scripts/fedcheck.py whole-program static analysis
#                 (lock-order, layer DAG, reactor-blocking + ported lint
#                 rules) and its own fixture tests; seconds, no toolchain
#   2. release  — build + full ctest suite, then the test-id guard: no
#                 ctest name may print a test parameter as raw bytes
#   3. asan     — same suite under Address/UndefinedBehaviorSanitizer
#   4. ubsan    — same suite under UBSan alone (recover disabled), so UB
#                 that ASan's shadow layout masks still fails the build
#   5. tsan     — same suite under ThreadSanitizer (data races in the
#                 thread-pool / serving / aggregation paths that ASan
#                 cannot see; suppressions in tsan.supp, kept empty)
# plus a serving-layer smoke run and, when clang-tidy is installed, a
# static-analysis pass over src/ against the exported compile database.
set -euo pipefail
cd "$(dirname "$0")/.."

# Portable core count: nproc is Linux/coreutils; macOS has sysctl.
if command -v nproc >/dev/null 2>&1; then
  default_jobs="$(nproc)"
else
  default_jobs="$(sysctl -n hw.ncpu 2>/dev/null || echo 4)"
fi
jobs="${JOBS:-$default_jobs}"

echo "==> fedcheck"
python3 scripts/test_fedcheck.py
python3 scripts/fedcheck.py

# Fails when a ctest name in build tree $1 holds a parameter printed as raw
# bytes ("N-byte object <…>"): those bytes can include heap addresses, so
# the test IDs would change from build to build. The fix is a PrintTo for
# the parameter type.
check_test_ids() {
  if ctest --test-dir "$1" -N | grep -F -- '-byte object <'; then
    echo "ctest names in $1 print a test parameter as raw bytes" >&2
    return 1
  fi
}

for preset in release asan ubsan tsan; do
  echo "==> ${preset}"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = release ]; then
    # Stable test IDs: the release tree must pass the guard, and the guard
    # must reject a fixture whose parameter struct has no PrintTo.
    echo "==> test ids"
    check_test_ids build-release
    fixture_dir="build-release/unprinted-param-fixture"
    cmake -S scripts/fixtures/unprinted_param -B "$fixture_dir" >/dev/null
    cmake --build "$fixture_dir" -j "$jobs" >/dev/null
    if check_test_ids "$fixture_dir" >/dev/null 2>&1; then
      echo "test-id guard passed a parameter with no PrintTo" >&2
      exit 1
    fi
  fi
done

# Serving-layer smoke: the benchmark's reduced sweep plus the end-to-end
# example must run to completion (nonzero exit fails the build). Benches run
# with the build dir as cwd so their BENCH_*.json summaries land there, not
# in the checkout (the tracked BENCH files are full-run results).
echo "==> smoke"
smoke_dir="build-release"
(cd "$smoke_dir" && bench/serve_throughput --smoke)
"$smoke_dir/examples/edge_serving" --nodes=16 --iterations=10 --requests=40

# Recommendation workload smoke: trains a small meta-init, sweeps the
# sharded cache, and exercises the open-loop generator end to end. Under a
# hard timeout — a deadlocked shard must fail the build, not hang it.
echo "==> rec"
if command -v timeout >/dev/null 2>&1; then
  (cd "$smoke_dir" && timeout 300 bench/rec_serving --smoke) >/dev/null
else
  (cd "$smoke_dir" && bench/rec_serving --smoke) >/dev/null
fi
"$smoke_dir/examples/rec_quickstart" >/dev/null

# Distributed smoke: real multi-process FedML over TCP. The self-test forks
# one platform + N node processes, then asserts the distributed run matches
# the in-process reference (exact comm ledger, same final model/loss); the
# tree self-test forks a root + 2 leaf platforms (each serving half the
# fleet) and asserts bit-identical parameters and a byte-equal edge ledger
# vs the flat fleet. Hard timeouts guard CI against a hung socket — a
# wedged fleet must fail the build, not stall it.
echo "==> distributed"
# The tree self-test also exports the merged fleet trace, per-round fleet
# CSV, and flight-recorder dump; they are schema-checked below.
fleet_trace="$smoke_dir/fleet-tree-trace.json"
fleet_csv="$smoke_dir/fleet-tree.csv"
flight_log="$smoke_dir/flight-tree.jsonl"
rm -f "$flight_log"
if command -v timeout >/dev/null 2>&1; then
  timeout 180 "$smoke_dir/examples/distributed_fedml" --self-test
  timeout 180 "$smoke_dir/examples/distributed_fedml" --self-test-tree \
    --fleet-trace-out="$fleet_trace" --fleet-csv-out="$fleet_csv" \
    --flight-out="$flight_log"
else
  "$smoke_dir/examples/distributed_fedml" --self-test
  "$smoke_dir/examples/distributed_fedml" --self-test-tree \
    --fleet-trace-out="$fleet_trace" --fleet-csv-out="$fleet_csv" \
    --flight-out="$flight_log"
fi
python3 scripts/check_telemetry.py --fleet "$fleet_trace" --csv "$fleet_csv"
python3 scripts/check_telemetry.py --recorder "$flight_log"
(cd "$smoke_dir" && bench/net_roundtrip --smoke) >/dev/null
if command -v timeout >/dev/null 2>&1; then
  (cd "$smoke_dir" && timeout 300 bench/net_fleet_scale --smoke) >/dev/null
  (cd "$smoke_dir" && timeout 300 bench/obs_overhead --smoke) >/dev/null
else
  (cd "$smoke_dir" && bench/net_fleet_scale --smoke) >/dev/null
  (cd "$smoke_dir" && bench/obs_overhead --smoke) >/dev/null
fi

# Kernel-subsystem perf gate: the meta_step smoke sweep re-measures the
# compat/fast dispatch on this machine and compares against the tracked
# baseline (bench/results/BENCH_meta_step.json). Only metrics present in
# both runs gate; the threshold is wide because smoke mode uses few reps on
# a possibly loaded machine — a real regression (e.g. the fast path losing
# its vectorized kernels) shows up as a 2–4x multiple, far past any margin.
echo "==> kern perf"
(cd "$smoke_dir" && bench/meta_step --smoke --json-dir=.) >/dev/null
python3 scripts/check_bench.py --compare \
  "$smoke_dir/BENCH_meta_step.json" bench/results/BENCH_meta_step.json \
  --threshold 0.5
# Microbenchmarks emit the same JSON artifact; a short run here keeps their
# schema (and the reporter adapter in bench/micro_common.h) exercised.
(cd "$smoke_dir" && bench/micro_tensor --benchmark_min_time=0.02 \
  --json-dir=.) >/dev/null
(cd "$smoke_dir" && bench/micro_autodiff --benchmark_min_time=0.02 \
  --json-dir=.) >/dev/null

# Every bench smoke above wrote a BENCH_<name>.json summary into the build
# dir; validate the schema (and the tracked full-run results in bench/).
echo "==> bench json"
python3 scripts/check_bench.py "$smoke_dir"/BENCH_*.json bench/results/BENCH_*.json

# Telemetry smoke: a short event-driven run must export a JSONL telemetry
# stream that passes schema/monotonicity/liveness validation.
echo "==> telemetry"
telemetry_file="$smoke_dir/telemetry-smoke.jsonl"
"$smoke_dir/examples/async_edge" --nodes=8 --iterations=40 \
  --telemetry-out="$telemetry_file" >/dev/null
python3 scripts/check_telemetry.py "$telemetry_file"

# Optional: clang-tidy over library code (config in .clang-tidy). Gated on
# availability — the baked-in CI image is gcc-only; developers with LLVM
# installed get the extra net locally.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> clang-tidy"
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$jobs" -n 1 clang-tidy -p "$smoke_dir" --quiet
else
  echo "==> clang-tidy not installed; skipping (config: .clang-tidy)"
fi

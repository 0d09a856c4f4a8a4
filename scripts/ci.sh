#!/usr/bin/env bash
# Tier-1 CI pipeline.
#
# 1. Configure + build the default (RelWithDebInfo) tree.
# 2. Run the whole ctest suite — this includes the `faults`, `telemetry`,
#    `resolve`, `service`, `store`, `fleet`, `memprof` and `fuzz` labels — and then
#    each of those labels once more by name, so a label that silently lost
#    its tests fails the pipeline.
# 3. Smoke-run the resolution, service, store, fleet and memprof benchmarks
#    (VIPROF_QUICK) and check that they leave non-empty BENCH_resolve.json /
#    BENCH_service.json / BENCH_store.json / BENCH_fleet.json /
#    BENCH_memprof.json behind.
# 4. Rebuild one sanitizer configuration (VIPROF_SANITIZE=thread by default;
#    set VIPROF_SANITIZE=address to switch) and run the concurrency-sensitive
#    labelled suites under it, plus the `fuzz` mutation suite (ASan under
#    VIPROF_SANITIZE=address).
#
# Usage: scripts/ci.sh [build-dir-prefix]     (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
SANITIZER="${VIPROF_SANITIZE:-thread}"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_label() {  # run_label <build-dir> <label>
  local count
  count="$(ctest --test-dir "$1" -L "$2" -N | sed -n 's/^Total Tests: //p')"
  if [ "${count:-0}" -eq 0 ]; then
    echo "ci.sh: label '$2' matches no tests in $1" >&2
    exit 1
  fi
  ctest --test-dir "$1" -L "$2" --output-on-failure -j "$JOBS"
}

echo "=== [1/4] tier-1 build + full test suite ($PREFIX) ==="
cmake -B "$PREFIX" -S . >/dev/null
cmake --build "$PREFIX" -j "$JOBS"
ctest --test-dir "$PREFIX" --output-on-failure -j "$JOBS"
run_label "$PREFIX" faults
run_label "$PREFIX" telemetry
run_label "$PREFIX" resolve
run_label "$PREFIX" service
run_label "$PREFIX" store
run_label "$PREFIX" fleet
run_label "$PREFIX" memprof
run_label "$PREFIX" fuzz

echo "=== [2/4] benchmark smoke (BENCH_resolve/service/store/fleet/memprof.json) ==="
(cd "$PREFIX" &&
 rm -f BENCH_resolve.json BENCH_service.json BENCH_store.json \
       BENCH_fleet.json BENCH_memprof.json &&
 VIPROF_QUICK=1 ./bench/micro_resolve \
   --benchmark_filter='BM_CodeMapResolveBackward|BM_IndexBuild|BM_RvmMapParse|BM_SampleLogParse|BM_ProfileFoldRender' &&
 test -s BENCH_resolve.json &&
 VIPROF_QUICK=1 ./bench/micro_service &&
 test -s BENCH_service.json &&
 VIPROF_QUICK=1 ./bench/micro_store &&
 test -s BENCH_store.json &&
 VIPROF_QUICK=1 ./bench/micro_fleet &&
 test -s BENCH_fleet.json &&
 VIPROF_QUICK=1 ./bench/micro_memprof &&
 test -s BENCH_memprof.json)
# Gate against the checked-in reference runs. Baseline-band drift is
# warn-only by default (quick runs on a noisy machine jitter);
# VIPROF_GATE=1 turns it fatal. The scaling gate inside bench_gate.py —
# ingest.t4 and e2e_resolve_aggregate.t4 must beat their .t1 ns/op by
# >= 10% — is always fatal on hosts with >= 4 CPUs: losing the parallel
# speedup means a global lock crept back into the striped ingest path.
# The strict gate — ingest.pc_idle within 5% of its baseline — is always
# fatal too: memprof compiled in but idle must not tax PC-only ingest.
python3 scripts/bench_gate.py --fresh "$PREFIX" --baseline bench/baselines

echo "=== [3/4] sanitizer build (VIPROF_SANITIZE=$SANITIZER) ==="
SAN_DIR="$PREFIX-$SANITIZER"
cmake -B "$SAN_DIR" -S . -DVIPROF_SANITIZE="$SANITIZER" >/dev/null
cmake --build "$SAN_DIR" -j "$JOBS"

echo "=== [4/4] labelled suites under $SANITIZER sanitizer ==="
run_label "$SAN_DIR" faults
run_label "$SAN_DIR" telemetry
run_label "$SAN_DIR" resolve
run_label "$SAN_DIR" service
run_label "$SAN_DIR" store
run_label "$SAN_DIR" fleet
run_label "$SAN_DIR" memprof
run_label "$SAN_DIR" fuzz

echo "ci.sh: all green"

#!/usr/bin/env bash
# ci.sh — the repo's tiered verify, runnable locally or in CI.
#
#   tier 1: release build + full ctest suite (ROADMAP.md "Tier-1 verify")
#   tier 2: ThreadSanitizer build of the concurrency-sensitive suites —
#           the parallel trial-execution engine (label `exec`), the
#           observability layer it records into (label `obs`), and the
#           intra-trial sharded-calendar engine (label `pdes`, including
#           the membership-churn K-invariance twin), whose window-barrier
#           handoff is exactly the code a missed happens-before edge would
#           hide in.
#   tier 3: ASan+UBSan build of the event-kernel, golden-regression,
#           workload-path, cache-substrate, cluster-engine,
#           miss-coalescing, replica-lifecycle, sharded-engine and
#           membership-churn suites (labels `sim`, `exec`, `workload`,
#           `cache`, `cluster`, `delayed_hit`, `hedge`, `pdes` and
#           `churn`) — the kernel's type-erased
#           inline-callback storage, slot free-list recycling, the
#           KeyTable's string_view-into-arena layout (now with
#           budget-driven chunk eviction, whose view-pinning contract is
#           only a real proof under ASan), the flat index's
#           backward-shift deletion and incremental rehash, the engine's
#           JobTable-backed fork-join joins, and the ReplicaSet's
#           cancellation of live events and queued jobs are exactly the
#           code a lifetime bug would hide in, so they run under
#           -fsanitize=address,undefined on every verify.
#
#   --bench-smoke: builds bench_micro_sim + bench_micro_cache and checks
#           the headline microbenches against absolute keys/s floors
#           (a coarse "did someone reintroduce a per-event allocation or a
#           per-arrival key render" tripwire, deliberately far below the
#           medians recorded in CHANGES.md PRs 3 and 4 so machine noise
#           never fails CI). Also runs the sharded-calendar scaling
#           harness in fast mode: its built-in K-invariance check always
#           applies; the wall-clock speedup floor (2x at 8 shards, below
#           the 3x claim of CHANGES.md PR 8) applies only when the
#           machine has >= 8 cores — fewer cores time-slice the shards
#           and the ratio measures the OS scheduler, not the engine.
#           Last, runs the benchmark's self-test (perfbench/run.py
#           --self-test): every workload's correctness gate must reject
#           perturbed results and every BENCHMARK.json metric must be
#           emitted with its unit.
#
# Usage: scripts/ci.sh [--tier1-only|--tsan-only|--asan-only|--bench-smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=1
run_tsan=1
run_asan=1
run_bench_smoke=0
case "${1:-}" in
  --tier1-only) run_tsan=0; run_asan=0 ;;
  --tsan-only) run_tier1=0; run_asan=0 ;;
  --asan-only) run_tier1=0; run_tsan=0 ;;
  --bench-smoke) run_tier1=0; run_tsan=0; run_asan=0; run_bench_smoke=1 ;;
  "") ;;
  *)
    echo "usage: scripts/ci.sh [--tier1-only|--tsan-only|--asan-only|--bench-smoke]" >&2
    exit 2
    ;;
esac

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$run_tier1" == 1 ]]; then
  echo "==> tier 1: build + full test suite"
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "==> tier 2: TSan on the exec + obs + pdes suites"
  cmake -B build-tsan -S . -DMCLAT_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target tests_exec tests_obs tests_pdes
  ctest --test-dir build-tsan -L "exec|obs|pdes" --output-on-failure -j "$jobs"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "==> tier 3: ASan+UBSan on the sim + exec + workload + cache + cluster + delayed_hit + hedge + pdes + churn suites"
  cmake -B build-asan -S . -DMCLAT_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs" \
    --target tests_sim tests_exec tests_workload_property tests_cache \
    tests_cluster_engine tests_delayed_hit tests_hedge tests_pdes \
    tests_churn
  ctest --test-dir build-asan \
    -L "sim|exec|workload|cache|cluster|delayed_hit|hedge|pdes|churn" \
    --output-on-failure -j "$jobs"
fi

if [[ "$run_bench_smoke" == 1 ]]; then
  echo "==> bench smoke: headline microbench floors"
  cmake -B build -S .
  cmake --build build -j "$jobs" --target bench_micro_sim bench_micro_cache
  smoke_json="$(mktemp)"
  smoke_json2="$(mktemp)"
  trap 'rm -f "$smoke_json" "$smoke_json2"' EXIT
  ./build/bench/bench_micro_sim \
    --benchmark_filter='BM_ScheduleAndRunEvents$|BM_MM1StationKeysPerSecond$' \
    --benchmark_min_time=0.2 --benchmark_format=json \
    >"$smoke_json" 2>/dev/null
  ./build/bench/bench_micro_cache \
    --benchmark_filter='BM_KeyMaterializeAndMap$|BM_LruStoreGetPrehashed$|BM_LruStoreGetPresampled$|BM_EndToEndRealCacheWorkload$|BM_EndToEndMillionKeyBoundedTable$|BM_CoalescedMissStorm$|BM_HedgedFanout$' \
    --benchmark_min_time=0.2 --benchmark_format=json \
    >"$smoke_json2" 2>/dev/null
  python3 - "$smoke_json" "$smoke_json2" <<'EOF'
import json, sys

# Floors: ~4x below the medians recorded in CHANGES.md PRs 3 and 4, so
# only a real regression (e.g. a reintroduced per-event allocation or
# per-arrival key render) can trip them.
floors = {
    "BM_ScheduleAndRunEvents": 3.0e6,
    "BM_MM1StationKeysPerSecond": 2.0e6,
    # The memoized key→server path: ~50M keys/s when healthy; anything
    # near the legacy ~1M keys/s string path is a regression.
    "BM_KeyMaterializeAndMap": 10.0e6,
    # Prehashed Zipf-read path: ~3-5M keys/s when healthy.
    "BM_LruStoreGetPrehashed": 0.8e6,
    # Pure index-probe path (ranks presampled): ~13-16M keys/s when the
    # flat index is healthy; anything near the ~8M/s unordered_map twin
    # means the open-addressing probe regressed (CHANGES.md PR 9).
    "BM_LruStoreGetPresampled": 3.0e6,
    # The whole engine stack end to end (PoissonSource → mapper → LruStore
    # → DbStage → ForkJoinJoiner): ~0.7M keys/s when healthy.
    "BM_EndToEndRealCacheWorkload": 0.15e6,
    # Million-key real-cache trial under a 48 MiB KeyTable budget: wall
    # clock is dominated by lazy chunk builds and eviction-driven rebuilds
    # (~2 ms each), ~20-25K keys/s when healthy. A rebuild storm (e.g. a
    # broken CLOCK hand that evicts the hot chunks) craters this first.
    "BM_EndToEndMillionKeyBoundedTable": 6.0e3,
    # Bernoulli r=1 miss storm through FetchTable park/release and the
    # stored-handler waiter delivery: ~4.5M keys/s when healthy; a
    # reintroduced per-waiter std::function copy shows up here.
    "BM_CoalescedMissStorm": 1.0e6,
    # Hedged d=2 with cancel-on-win at rho~0.45 through the ReplicaSet
    # (deadline estimator, hedge events, O(1) loser cancellation):
    # ~1.5M keys/s when healthy.
    "BM_HedgedFanout": 0.3e6,
}
rates = {}
for path in sys.argv[1:]:
    with open(path) as f:
        report = json.load(f)
    rates.update(
        {b["name"]: b["items_per_second"] for b in report["benchmarks"]}
    )
failed = False
for name, floor in floors.items():
    rate = rates.get(name)
    if rate is None:
        print(f"FAIL {name}: benchmark missing from report")
        failed = True
        continue
    verdict = "ok" if rate >= floor else "FAIL"
    failed |= rate < floor
    print(f"{verdict} {name}: {rate / 1e6:.2f}M items/s (floor {floor / 1e6:.1f}M)")
sys.exit(1 if failed else 0)
EOF

  echo "==> bench smoke: sharded-calendar scaling (fast mode)"
  cmake --build build -j "$jobs" --target bench_ext_shard_scaling
  shard_out="$(mktemp)"
  trap 'rm -f "$smoke_json" "$smoke_json2" "$shard_out"' EXIT
  # The harness exits nonzero on a K-invariance violation by itself.
  MCLAT_BENCH_FAST=1 ./build/bench/bench_ext_shard_scaling >"$shard_out"
  python3 - "$shard_out" <<'EOF'
import sys

cores = None
rows = []
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("MACHINE "):
            cores = int(line.split("cores=")[1])
        elif line.startswith("ROW "):
            cell = dict(tok.split("=") for tok in line.split()[1:])
            rows.append({k: float(v) for k, v in cell.items()})

if cores is None or not rows:
    sys.exit("FAIL shard smoke: harness output missing MACHINE/ROW lines")
if cores < 8:
    print(f"ok shard smoke: K-invariance held; speedup floor skipped "
          f"({cores} core(s) < 8 — shards would time-slice)")
    sys.exit(0)

anchors = {r["servers"]: r["wall_s"] for r in rows if r["shards"] == 1}
worst = min(
    anchors[r["servers"]] / r["wall_s"] for r in rows if r["shards"] == 8
)
# Floor at 2x: far enough under the 3x claim of CHANGES.md PR 8 that
# machine noise never fails CI, high enough that a serialization bug
# (e.g. a barrier every event instead of every window) trips it.
if worst < 2.0:
    print(f"FAIL shard smoke: 8-shard speedup {worst:.2f}x < 2.0x floor")
    sys.exit(1)
print(f"ok shard smoke: 8-shard speedup {worst:.2f}x (floor 2.0x)")
EOF

  echo "==> bench smoke: benchmark self-test (perfbench)"
  python3 perfbench/run.py --self-test
fi

echo "==> ci.sh: all requested tiers passed"

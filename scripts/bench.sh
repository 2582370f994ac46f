#!/usr/bin/env bash
# Report-pipeline benchmark: runs the `report_pipeline` bin and writes
# `BENCH_report_pipeline.json` at the repo root.
#
#   ./scripts/bench.sh            # full settings (best-of-3 e2e/stress,
#                                 # best-of-5 invplan passes)
#   ./scripts/bench.sh --quick    # reduced iterations, used by ci.sh
#
# The JSON has these sections:
#   baseline_before — pre-refactor numbers frozen into the binary
#   popscale        — struct-of-arrays population sweep (10k/100k/1M AAW
#                     clients, ascending): events/sec and peak RSS (VmHWM)
#   sched           — heap-vs-timing-wheel scheduler micro-benchmark
#   e2e             — fig05 sweep per scheme: wall secs, events, events/sec
#   stress          — heavy single-run config per scheme (40k db, 200 clients)
#   handoff         — the stress shape over 4 cells with migrating clients
#                     (BS and AAW)
#   invplan         — bitmap invalidation plans at the stress shape (40k db,
#                     800-item caches): the per-item plan-bit probe arm vs
#                     the word-wise PlanCache intersection arm, ns/client
#                     at 10k/100k/1M clients, plus a probed AAW run's
#                     plan-cache hit rate
#
# Every simulation in it runs on the serial engine; `host_cores` is
# recorded beside the numbers.
#
# ci.sh runs seven gates on this binary. Four re-time one row against
# `--check-against BENCH_report_pipeline.json` and fail below a floor of
# its events/sec: --smoke-popscale 100000 (90%), --smoke-stress (90%),
# --smoke-handoff (90%) and --smoke-e2e (80%, the noise-prone AAW fig05
# sweep). Three need no committed numbers, timing two paths in one
# process: --smoke-sched (wheel at least matches heap), --smoke-invplan
# (word arm beats per-item arm) and --smoke-bsbuild (shared-index BS
# build at least 10x a from-scratch build).
#
# Criterion micro-benchmarks live separately under
# `cargo bench -p mobicache-bench --bench micro`.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_report_pipeline.json"

echo "==> cargo build --release -p mobicache-bench"
cargo build --release -p mobicache-bench

echo "==> report_pipeline $* --out $OUT"
./target/release/report_pipeline "$@" --out "$OUT"

echo "wrote $OUT"

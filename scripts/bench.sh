#!/usr/bin/env bash
# Report-pipeline benchmark: runs the `report_pipeline` bin and writes
# `BENCH_report_pipeline.json` at the repo root.
#
#   ./scripts/bench.sh            # full settings (popscale up to 1M
#                                 # clients, best-of-5 invplan passes)
#   ./scripts/bench.sh --quick    # reduced iterations, used by ci.sh
#
# Whole-simulation throughput is not measured here: the four `mobibench`
# workloads (BENCHMARK.json) time it, and ci.sh gates their calibrated
# medians against BENCH_mobibench.json. This harness keeps what no
# `mobibench` workload reaches or isolates. The JSON opens with the host
# fingerprint (`host_cores`, `cpu_model`) and has these sections:
#   popscale        — struct-of-arrays population sweep (10k/100k/1M AAW
#                     clients, ascending): events/sec and peak RSS (VmHWM)
#   sched           — heap-vs-timing-wheel scheduler micro-benchmark
#   invplan         — bitmap invalidation plans at the stress shape (40k db,
#                     800-item caches): the per-item plan-bit probe arm vs
#                     the word-wise PlanCache intersection arm, ns/client
#                     at 10k clients, plus a probed AAW run's plan-cache
#                     hit rate
#
# Every simulation in it runs on the serial engine.
#
# ci.sh runs three gates on this binary, each timing two paths in one
# process, so none needs committed numbers: --smoke-sched (wheel at
# least matches heap), --smoke-invplan (word arm beats per-item arm) and
# --smoke-bsbuild (shared-index BS build at least 10x a from-scratch
# build). --smoke-popscale CLIENTS prints one popscale row and gates
# nothing.
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

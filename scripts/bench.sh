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
#   invplan         — bitmap invalidation plans at the stress shape (40k db,
#                     800-item caches): the per-item plan-bit probe arm vs
#                     the word-wise PlanCache intersection arm, ns/client
#                     at 10k clients, plus a probed AAW run's plan-cache
#                     hit rate
#
# Every simulation in it runs on the serial engine.
#
# ci.sh runs one gate on this binary, --smoke-invplan (the word arm
# beats the per-item arm); it times both arms in one process, so it
# needs no committed numbers. --smoke-popscale CLIENTS prints one
# popscale row and gates nothing. Per-layer timings (scheduler, LRU,
# channel, report build) come from `mobibench --trace` inside real
# workloads.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_report_pipeline.json"

echo "==> cargo build --release -p mobicache-bench"
cargo build --release -p mobicache-bench

echo "==> report_pipeline $* --out $OUT"
./target/release/report_pipeline "$@" --out "$OUT"

echo "wrote $OUT"

#!/usr/bin/env bash
# Report-pipeline benchmark: runs the `report_pipeline` bin and writes
# `BENCH_report_pipeline.json` at the repo root.
#
#   ./scripts/bench.sh            # full settings (popscale up to 1M
#                                 # clients)
#   ./scripts/bench.sh --quick    # 10k and 100k rows only, used by ci.sh
#
# Whole-simulation throughput is not measured here: the four `mobibench`
# workloads (BENCHMARK.json) time it, and ci.sh gates their calibrated
# medians against BENCH_mobibench.json. This harness keeps what no
# `mobibench` workload reaches. The JSON opens with the host
# fingerprint (`host_cores`, `cpu_model`) and has one section:
#   popscale        — struct-of-arrays population sweep (10k/100k/1M AAW
#                     clients, ascending): events/sec and peak RSS (VmHWM)
#
# Every simulation in it runs on the serial engine.
#
# ci.sh gates nothing on this binary's timings; it checks only that the
# --quick output keeps the committed file's keys. --smoke-popscale
# CLIENTS prints one popscale row. The word arm of the invalidation plan
# is timed by `mobibench --trace` (reports.plan_intersect_ns_per_client)
# on each workload's full caches, and the arm choice is pinned by a unit
# test of `plan_profitable` (crates/client/src/pop.rs). Per-layer
# timings (scheduler, LRU, channel, report build) also come from
# `mobibench --trace` inside real workloads.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_report_pipeline.json"

echo "==> cargo build --release -p mobicache-bench"
cargo build --release -p mobicache-bench

echo "==> report_pipeline $* --out $OUT"
./target/release/report_pipeline "$@" --out "$OUT"

echo "wrote $OUT"

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
#   invplan         — bitmap invalidation plans at the stress shape (40k db,
#                     800-item caches): the per-item plan-bit probe arm vs
#                     the word-wise PlanCache intersection arm, ns/client
#                     at 10k/100k/1M clients, plus a probed AAW run's
#                     plan-cache hit rate
#   scaling         — full AAW runs, clients x engine worker threads
#                     (host_cores recorded; on a 1-core host ~1.0x is the
#                     expected ceiling)
#
# Several rows double as CI regression floors: ci.sh re-runs the popscale
# 100k row (--smoke-popscale, >10% events/sec drop fails), the heavy AAW
# stress point (--smoke-stress) and the AAW e2e sweep (--smoke-e2e, 80%
# floor), all via `--check-against BENCH_report_pipeline.json`. The
# invplan smoke (--smoke-invplan) needs no committed numbers: it fails
# when the word arm stops beating the per-item arm in the same process.
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

#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
#
#   ./scripts/ci.sh
#
# Runs entirely offline (the workspace vendors its dev-dependency stubs),
# so this is exactly what a fresh checkout must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# `unsafe` stays confined to the worker pool's job dispatch and
# per-chunk slot handout; every sharded phase reaches it through
# `WorkerPool::for_each_chunk`. (The `:(glob)` form makes `**` match
# files below each `src`; a bare `crates/*/src` pathspec matches none.)
echo "==> unsafe confinement"
stray=$(git grep -l unsafe -- ':(glob)crates/*/src/**' |
  grep -v -x -e crates/sim/src/pool.rs || true)
if [ -n "$stray" ]; then
  echo "unsafe outside crates/sim/src/pool.rs:"
  git grep -n unsafe -- $stray
  exit 1
fi

# The size the roadmap tracks: non-test lines in crates/*/src, counting
# each file up to its first #[cfg(test)].
echo "==> non-test lines in crates/*/src"
git ls-files ':(glob)crates/*/src/**/*.rs' |
  xargs awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }'

# The panic count the roadmap tracks: non-test panic!, .expect(,
# .unwrap( and unreachable! sites per crate, with the same cut-off
# (comment lines, doc examples included, do not count). Print-only.
echo "==> non-test panic sites per crate in crates/*/src"
git ls-files ':(glob)crates/*/src/**/*.rs' |
  xargs awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 }
    !skip && !/^[[:space:]]*\/\// {
      split(FILENAME, path, "/")
      n[path[2]] += gsub(/panic!|\.expect\(|\.unwrap\(|unreachable!/, "&")
    }
    END { for (c in n) print c, n[c] }' | sort

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The golden-digest suite must hold at any worker-thread count: the
# persistent pool's sharded phases are bit-identical by contract. Run it
# serial and sharded, in debug AND release — release reorders enough
# (inlining, vectorized loops) to have caught ordering bugs debug masks.
for profile in "" "--release"; do
  for t in 1 4; do
    echo "==> determinism suite, threads=$t ${profile:-debug}"
    MOBICACHE_THREADS=$t cargo test -q $profile --test determinism
  done
done

# Fault matrix: the high-fault digest must be thread-invariant too (the
# fault coins ride dedicated streams in the serial phases), and the
# any-fault-schedule proptests run the oracle under arbitrary fault
# plans. Timeout because their failure mode includes a retry loop that
# never terminates.
for t in 1 4; do
  echo "==> fault determinism leg, threads=$t (release)"
  MOBICACHE_THREADS=$t cargo test -q --release --test determinism fault
done
echo "==> fault-schedule proptest suite (under timeout)"
timeout 600 cargo test -q --release --test faults

# Multi-cell legs: the mobility digests must be thread-invariant (the
# mobility coins ride dedicated per-cell streams), and the cell
# equivalence battery pins cells=1 bit-identity plus the
# handoff-equals-disconnection contract. Timeouts because the proptests'
# failure mode includes shrink loops over whole-simulation runs.
for t in 1 4; do
  echo "==> multi-cell determinism leg, threads=$t (release)"
  MOBICACHE_THREADS=$t timeout 600 cargo test -q --release --test determinism \
    -- multi_cell mobility
done
echo "==> cell equivalence suite (under timeout)"
timeout 600 cargo test -q --release --test cells

# The benchmark harness in mobibench/ builds against the library crates
# by path: its tests pin 1/50-horizon digests of every workload at 1 and
# 2 threads and compile against the plan API, so a library change that
# breaks the benchmark fails here first.
echo "==> mobibench harness tests"
cargo test -q --offline --manifest-path mobibench/Cargo.toml

# Pool lifecycle tests under a hard timeout: their failure mode is a
# wedged barrier or an unjoined worker, which must fail fast instead of
# hanging the suite.
echo "==> pool lifecycle suite (under timeout)"
timeout 300 cargo test -q --release --test pool

# The quiet rule of the report fan-out: random client histories over
# every scheme, checking that a quiet client takes any report as a `Tlb`
# stamp, and that stamp-plus-walk equals walking every client. Under
# timeout, like the other proptest legs.
echo "==> quiet-client proptest suite (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-client --test quiet_props

# crates/bench is outside default-members, so tier-1 never compiles its
# tests: the harness's committed-row lookup and floor gate are tested
# here, against the committed BENCH_report_pipeline.json.
echo "==> report_pipeline harness tests"
cargo test -q --release -p mobicache-bench --bin report_pipeline

echo "==> bench smoke: report_pipeline --quick --threads 2"
cargo build --release -p mobicache-bench
./target/release/report_pipeline --quick --threads 2 --out /tmp/bench_smoke.json
# The JSON writer must keep every section, key and row column: the smoke
# output carries exactly the committed file's set of distinct keys.
json_keys() { grep -o '"[^"]*":' "$1" | sort -u; }
if [ "$(json_keys /tmp/bench_smoke.json)" != "$(json_keys BENCH_report_pipeline.json)" ]; then
  echo "bench smoke JSON keys differ from BENCH_report_pipeline.json:"
  diff <(json_keys BENCH_report_pipeline.json) <(json_keys /tmp/bench_smoke.json) || true
  exit 1
fi
rm -f /tmp/bench_smoke.json

# Population-scale leg for the struct-of-arrays client core. (The
# 100k-client determinism pin is no longer #[ignore]d: the determinism
# suite loop above runs it in debug and in release at MOBICACHE_THREADS=1
# and 4.) The popscale smoke re-runs the committed 100k bench row and
# fails on a >10% events/sec regression against
# BENCH_report_pipeline.json, under timeout: its failure mode includes a
# wedged shard barrier.
echo "==> popscale smoke: 100k clients vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-popscale 100000 --check-against BENCH_report_pipeline.json

# Scheduler legs for the timing wheel: the stress smoke re-runs the
# heavy AAW point against the committed stress row (a scheduler or
# report-pipeline throughput regression fails here, not just a
# population-scaling one), and the sched smoke re-runs the 10k-pending
# heap-vs-wheel micro-benchmark, failing if the wheel drops below the
# heap baseline.
echo "==> stress smoke: heavy AAW point vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-stress --check-against BENCH_report_pipeline.json

# The handoff smoke re-runs the heavy AAW multi-cell point (4 cells,
# migrating clients, per-cell fan-out and update replay) against the
# committed handoff row; a regression in the cell-aware broadcast path
# or the handoff machinery fails here before it reaches a figure sweep.
echo "==> handoff smoke: multi-cell AAW point vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-handoff --check-against BENCH_report_pipeline.json

echo "==> sched smoke: heap-vs-wheel micro-benchmark"
timeout 300 ./target/release/report_pipeline --smoke-sched

# Invalidation-plan leg: the invplan smoke times the plan's two arms in
# one process at the stress shape's 800-item caches (10k clients) and
# fails if the word-wise intersection, which the client selection picks
# there, stops beating the per-item plan-bit probes. Same-process, so
# it needs no committed numbers. The e2e smoke closes the old gap where
# the e2e section had no gate at all: it re-runs the full AAW fig05
# sweep against the committed e2e row with an 80% floor (e2e wall times
# are tens of milliseconds, so proportional noise is larger).
echo "==> invplan smoke: word arm vs per-item arm at 10k clients"
timeout 300 ./target/release/report_pipeline --smoke-invplan

# BS build leg: the stress shape's update stream replayed through a BS
# server, timing the per-tick shared-index report build against a
# from-scratch `from_recency` build of the same log state in one
# process; fails unless the shared build is at least 10x faster.
echo "==> bsbuild smoke: shared-index BS build vs from-scratch build"
timeout 300 ./target/release/report_pipeline --smoke-bsbuild

echo "==> e2e smoke: AAW fig05 sweep vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-e2e --check-against BENCH_report_pipeline.json

echo "CI OK"

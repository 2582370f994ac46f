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

# No `unsafe` anywhere: the workspace lint (`unsafe_code = "forbid"`)
# rejects it at compile time in every member crate, and this leg also
# catches any tracked .rs file outside them (mobibench/, for one).
echo "==> no unsafe in tracked .rs files"
if git grep -n unsafe -- '*.rs'; then
  echo "unsafe found in the files above"
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

# The golden-digest suite in debug AND release — release reorders
# enough (inlining, vectorized loops) to have caught ordering bugs
# debug masks.
for profile in "" "--release"; do
  echo "==> determinism suite (${profile:-debug})"
  cargo test -q $profile --test determinism
done

# Fault leg: the high-fault digests in release, and the
# any-fault-schedule proptests run the oracle under arbitrary fault
# plans. Timeout because their failure mode includes a retry loop that
# never terminates.
echo "==> fault determinism leg (release)"
cargo test -q --release --test determinism fault
echo "==> fault-schedule proptest suite (under timeout)"
timeout 600 cargo test -q --release --test faults

# Multi-cell legs: the mobility digests in release, and the cell
# equivalence battery pins cells=1 bit-identity plus the
# handoff-equals-disconnection contract. Timeouts because the proptests'
# failure mode includes shrink loops over whole-simulation runs.
echo "==> multi-cell determinism leg (release)"
timeout 600 cargo test -q --release --test determinism -- multi_cell mobility
echo "==> cell equivalence suite (under timeout)"
timeout 600 cargo test -q --release --test cells

# The committed campaign regenerates: `repro --all` at full horizon into
# a temp dir must reproduce every results/*.csv byte for byte (runs are
# seeded, so any difference is a behaviour change that needs its own
# justification and a regenerated CSV).
echo "==> campaign regeneration: repro --all vs results/"
campaign=$(mktemp -d)
trap 'rm -rf "$campaign"' EXIT
./target/release/repro --all --out "$campaign" > /dev/null
committed=$(git ls-files 'results/*.csv')
if ! diff <(echo "$committed" | sed 's|^results/||') <(ls "$campaign"); then
  echo "repro --all wrote a different set of CSVs than results/ holds"
  exit 1
fi
for f in $committed; do
  if ! cmp "$f" "$campaign/${f#results/}"; then
    echo "repro --all output differs from the committed $f"
    exit 1
  fi
done

# The benchmark harness in mobibench/ builds against the library crates
# by path: its tests pin 1/50-horizon digests of every workload and
# compile against the plan API, so a library change that breaks the
# benchmark fails here first.
echo "==> mobibench harness tests"
cargo test -q --offline --manifest-path mobibench/Cargo.toml

# The quiet rule of the report fan-out: random client histories over
# every scheme, checking that a quiet client takes any report as a `Tlb`
# stamp, and that stamp-plus-walk equals walking every client. Under
# timeout, like the other proptest legs.
echo "==> quiet-client proptest suite (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-client --test quiet_props

# Report application: the LRU cache against its reference models
# (states and `validated_at` under the O(1) vouch epoch), the two-level
# plan against fresh decodes and the dense intersection, and plan
# application against the linear decide. Tier-1 runs them in debug only.
echo "==> report-application proptests (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-cache --test lru_props
timeout 600 cargo test -q --release -p mobicache-reports --test plan_props
timeout 600 cargo test -q --release -p mobicache-client --test plan_apply_props

# crates/bench is outside default-members, so tier-1 never compiles its
# tests: the harness's committed-row lookup and floor gate are tested
# here, against the committed BENCH_report_pipeline.json.
echo "==> report_pipeline harness tests"
cargo test -q --release -p mobicache-bench --bin report_pipeline

echo "==> bench smoke: report_pipeline --quick"
cargo build --release -p mobicache-bench
./target/release/report_pipeline --quick --out /tmp/bench_smoke.json
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
# 100k-client determinism pin runs in the determinism suite above, in
# debug and in release.) The popscale smoke re-runs the committed 100k
# bench row and fails on a >10% events/sec regression against
# BENCH_report_pipeline.json, under timeout.
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

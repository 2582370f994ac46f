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

# Rustdoc with warnings as errors: a doc link to a private or deleted
# name fails here rather than rendering as plain text.
echo "==> cargo doc --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# No `unsafe` anywhere: the workspace lint (`unsafe_code = "forbid"`)
# rejects it at compile time in every member crate, and this leg also
# catches any tracked .rs file outside them (mobibench/, for one).
echo "==> no unsafe in tracked .rs files"
if git grep -n unsafe -- '*.rs'; then
  echo "unsafe found in the files above"
  exit 1
fi

# Both counts below stop each file at its test module: the
# `#[cfg(test)]` that opens a `mod`, on the attribute's line or the
# next. A `#[cfg(test)]` item anywhere else stays counted. `skip` is set
# from the `mod` line on; `attrs` counts the attribute lines above such
# a `mod`, which were counted before the cut was seen.
test_mod='FNR == 1 { skip = 0; prev = "" }
  !skip && /^[[:space:]]*(pub(\([^)]*\))? )?mod / &&
    prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { skip = 1; attrs++ }
  !skip && /#\[cfg\(test\)\][[:space:]]*(pub(\([^)]*\))? )?mod / { skip = 1 }
  { prev = $0 }'

# The size the roadmap tracks: non-test lines in crates/*/src.
echo "==> non-test lines in crates/*/src"
git ls-files ':(glob)crates/*/src/**/*.rs' |
  xargs awk "$test_mod"' !skip { n++ } END { print n - attrs }'

# The panic count the roadmap tracks: non-test panic!, .expect(,
# .unwrap( and unreachable! sites per crate, with the same cut-off
# (comment lines, doc examples included, do not count). Print-only.
echo "==> non-test panic sites per crate in crates/*/src"
git ls-files ':(glob)crates/*/src/**/*.rs' |
  xargs awk "$test_mod"'
    !skip && !/^[[:space:]]*\/\// {
      split(FILENAME, path, "/")
      n[path[2]] += gsub(/panic!|\.expect\(|\.unwrap\(|unreachable!/, "&")
    }
    END { for (c in n) print c, n[c] }' | sort

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The golden-digest suite in release too (tier-1 above runs it in
# debug) — release reorders enough (inlining, vectorized loops) to have
# caught ordering bugs debug masks. It includes the fault and
# multi-cell digests, and the observer suite's pin of the probe-event
# stream, which sees the order of events the digests only count.
echo "==> determinism suite (release)"
cargo test -q --release --test determinism --test observer

# The any-fault-schedule proptests run the oracle under arbitrary fault
# plans. Timeout because their failure mode includes a retry loop that
# never terminates.
echo "==> fault-schedule proptest suite (under timeout)"
timeout 600 cargo test -q --release --test faults

# The cell equivalence battery pins cells=1 bit-identity plus the
# handoff-equals-disconnection contract. Timeout because the proptests'
# failure mode includes shrink loops over whole-simulation runs.
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

# The vouched-stamp rule of the report fan-out: random client histories
# over every scheme, checking that the handler takes any report as a
# `Tlb` stamp for a client with an empty cache and nothing it could
# move, that the stamp serves exactly the listeners the vouched rule
# names and stamp-plus-walk equals walking every client, and that the
# lazy stamp (the cell's epoch, and a retry-armed client stamped until
# its backoff deadline) matches an eager walk in lockstep, with each
# client's stored retry deadline equal to one re-derived from its
# pending items. Under timeout, like the other proptest legs.
echo "==> quiet-client proptest suite (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-client --test quiet_props

# Report application and delivery: the LRU cache against its reference
# models (states and `validated_at` under the O(1) vouch epoch), the
# two-level plan against fresh decodes and the dense intersection, the
# SIG mask decode against the hash-per-item decide, plan application
# against the linear decide, and the preemptive-priority channel (work
# conserved through preemption, busy time, backlog after every step,
# report latency). Tier-1 runs them in debug only.
echo "==> report-application and channel proptests (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-cache --test lru_props
timeout 600 cargo test -q --release -p mobicache-reports --test plan_props
timeout 600 cargo test -q --release -p mobicache-reports --test at_sig_props
timeout 600 cargo test -q --release -p mobicache-client --test plan_apply_props
timeout 600 cargo test -q --release -p mobicache-net --test channel_props

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

# The calibrated end-to-end gate. It first checks the comparison itself:
# a reference copy with `paper` events/s raised 30 % must fail, and one
# with another host fingerprint must skip. Then it runs the benchmark
# command BENCHMARK.json declares on every workload (5 rounds, median,
# host seconds scaled to a reference host by mobibench's CPU kernel),
# which exits non-zero on any failed op, and compares its result with
# the committed BENCH_mobibench.json under BENCHMARK.json's bounds.
echo "==> perf_compare self-test"
selftest=$(mktemp -d)
jq '.metrics["paper.events_per_s"].value *= 1.3' BENCH_mobibench.json > "$selftest/raised.json"
if out=$(./scripts/perf_compare.sh BENCHMARK.json "$selftest/raised.json" BENCH_mobibench.json) ||
  ! grep -q 'paper.events_per_s *FAIL' <<< "$out"; then
  echo "$out"
  echo "perf_compare passed a 30 % events/s drop"
  exit 1
fi
jq '.host.cpu = "another CPU"' BENCH_mobibench.json > "$selftest/elsewhere.json"
if ! out=$(./scripts/perf_compare.sh BENCHMARK.json "$selftest/elsewhere.json" BENCH_mobibench.json) ||
  ! grep -q '^SKIP' <<< "$out"; then
  echo "$out"
  echo "perf_compare did not skip a reference from another host"
  exit 1
fi
rm -rf "$selftest"

echo "==> calibrated mobibench gate: every workload vs BENCH_mobibench.json"
mapfile -t bench_cmd < <(jq -r '.command[]' BENCHMARK.json)
bench_out=$(mktemp)
"${bench_cmd[@]}" --workload all --reps 5 --trace 0 | tee "$bench_out"
fresh=$(mktemp --suffix=.json)
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)
tail -n 1 "$bench_out" |
  jq --argjson cores "$(nproc)" --arg cpu "${cpu:-unknown}" '. + {host: {cores: $cores, cpu: $cpu}}' > "$fresh"
rm -f "$bench_out"
echo "fresh result: $fresh (copy it over BENCH_mobibench.json to re-baseline)"
./scripts/perf_compare.sh BENCHMARK.json BENCH_mobibench.json "$fresh"

echo "CI OK"

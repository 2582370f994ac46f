#!/usr/bin/env bash
# Compares a fresh `mobibench` result with a committed reference, using
# the end-to-end bounds that BENCHMARK.json declares.
#
#   ./scripts/perf_compare.sh BENCHMARK.json BENCH_mobibench.json FRESH.json
#
# Both result files hold mobibench's final JSON line plus a `host`
# fingerprint, `{"cores": N, "cpu": "<model>"}`. For every workload W
# and end-to-end metric M that BENCHMARK.json lists, the metric `W.M`
# fails when the fresh value is worse than the reference by more than
# M's `bound`, in M's `better` direction: the rule a change is held to
# against its parent. `setup_s` is printed but not gated, because it
# spreads about 23 % run to run on `mobile-faults`, too close to its
# 25 % bound. A metric missing from either file fails.
#
# When the fingerprints differ, the numbers are not comparable: the
# script prints SKIP with both fingerprints and exits 0. Exits 1 when
# any gated metric fails. Needs `jq`.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BENCHMARK.json REFERENCE.json FRESH.json" >&2
  exit 2
fi
bench=$1 ref=$2 fresh=$3
print_only="setup_s"

ref_host=$(jq -c '.host' "$ref")
fresh_host=$(jq -c '.host' "$fresh")
if [ "$ref_host" != "$fresh_host" ]; then
  echo "SKIP: host fingerprint differs from the reference; no metric compared"
  echo "  reference: $ref_host"
  echo "  fresh:     $fresh_host"
  exit 0
fi

# One tab-separated line per workload metric: name, better, bound,
# reference value, fresh value, and how much worse the fresh value is as
# a share of the reference (negative when it is better).
rows=$(jq -r -n --slurpfile b "$bench" --slurpfile r "$ref" --slurpfile f "$fresh" '
  $b[0].workloads[].name as $w
  | $b[0].end_to_end[] as $m
  | "\($w).\($m.name)" as $k
  | $r[0].metrics[$k].value as $rv
  | $f[0].metrics[$k].value as $fv
  | [$k, $m.name, $m.better, $m.bound, $rv, $fv,
     if $rv == null or $fv == null or $rv == 0 then null
     elif $m.better == "higher" then ($rv - $fv) / $rv
     else ($fv - $rv) / $rv end]
  | map(. // "missing") | @tsv')

if [ -z "$rows" ]; then
  echo "perf_compare: BENCHMARK.json lists no workload metric to compare"
  exit 1
fi
failed=0
echo "host: $ref_host"
while IFS=$'\t' read -r key metric better bound rv fv worse; do
  if [ "$worse" = missing ]; then
    verdict=FAIL
    line="reference $rv, fresh $fv"
  else
    line=$(awk -v r="$rv" -v f="$fv" -v b="$bound" -v d="$better" \
      'BEGIN { printf "reference %.6g, fresh %.6g (%+.1f%%; %s is better, bound %.0f%%)", r, f, 100 * (f / r - 1), d, 100 * b }')
    if [ "$metric" = "$print_only" ]; then
      verdict="not gated"
    elif awk -v w="$worse" -v b="$bound" 'BEGIN { exit !(w > b) }'; then
      verdict=FAIL
    else
      verdict=ok
    fi
  fi
  [ "$verdict" = FAIL ] && failed=$((failed + 1))
  printf '  %-28s %-9s %s\n' "$key" "$verdict" "$line"
done <<< "$rows"

if [ "$failed" -gt 0 ]; then
  echo "perf_compare: $failed metric(s) worse than the reference by more than their bound"
  exit 1
fi
echo "perf_compare: every gated metric within its bound"

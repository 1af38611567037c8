#!/usr/bin/env bash
# Smoke check of the benchmark itself: runs every workload (untraced and
# traced) plus the layer probes at 1/50 size, then validates that each
# output carries exactly the metric names of BENCHMARK.json, that every
# name is well formed, that no value is NaN or negative (nor zero, for
# end-to-end and probe metrics), and that no operation failed.
#
# Run from anywhere; it works on the repository this script sits in.
set -euo pipefail
cd "$(dirname "$0")/.."

out=benchmark/out/check
rm -rf "$out"
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

cargo test --release --quiet --manifest-path benchmark/Cargo.toml

# The driver's entry point, one workload at a time, probes included.
for workload in steady_small steady_bulk session_churn checkpoint_serve; do
  for trace in 0 1; do
    run --workload "$workload" --seed 12 --smoke --trace "$trace" --out-dir "$out" >/dev/null
    run validate "$out/${workload}_seed12_trace${trace}.json"
  done
done

# The suite and the stand-alone probes.
run --all --smoke --label check --out-dir "$out" >/dev/null
run --layers --smoke --out-dir "$out" >/dev/null
run validate "$out/ledger_check.json"

# A ledger compares cleanly against itself, and the spec is the committed one.
run compare "$out/ledger_check.json" "$out/ledger_check.json" >/dev/null
run print-spec | cmp - BENCHMARK.json

echo "benchmark check: ok"

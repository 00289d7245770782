#!/usr/bin/env bash
# Manual perf gate — runs the ptsim_bench::harness benches and records the
# trajectory in BENCH_PIPELINE.json (one JSON object per line: a meta header
# per bench binary, then one result per benchmark).
#
# This is NOT part of scripts/ci.sh pass/fail (timing on shared CI machines
# is too noisy to gate on); run it manually on a quiet machine before and
# after perf-relevant changes and compare medians. ci.sh only smoke-runs the
# same binaries with a 1-sample config to keep them buildable and parseable.
#
# The thermal bench times the Gauss-Seidel steady-state solver at
# steady_state_gs/16 (the unchanged control of the regression-guard note
# in EXPERIMENTS.md) plus the transient steps and the 2 ms DTM tick.
#
# Usage: scripts/bench.sh [label]
#   label  optional run label recorded in the output filename
#          (BENCH_PIPELINE.<label>.json); default appends to
#          BENCH_PIPELINE.json, so successive runs accumulate a trajectory
#          (each run starts with its own meta lines carrying the git rev).
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-}"
out="BENCH_PIPELINE${label:+.$label}.json"

# Run metadata is passed INTO the harness (the harness itself reads no
# clock and runs no git — bench binaries stay hermetic).
PTSIM_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
PTSIM_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export PTSIM_BENCH_GIT_REV PTSIM_BENCH_DATE

# Pin the per-benchmark warm-up so every recorded run measures the same
# steady state regardless of caller environment; successive trajectory
# entries are only comparable when this phase is identical. (Regression
# comparisons should read min_ns, not median_ns — see EXPERIMENTS.md.)
PTSIM_BENCH_WARMUP_US=500000
export PTSIM_BENCH_WARMUP_US

cargo build --release --offline -p ptsim-bench --benches

# Discarded pre-pass: the first recorded bench otherwise pays cold page
# cache, branch predictors, and CPU-governor ramp for the whole process
# fleet, and lands in the trajectory as a phantom regression.
echo "==> warm-up pre-pass (discarded)" >&2
PTSIM_BENCH_SAMPLES=3 cargo bench -q --offline -p ptsim-bench --bench end_to_end > /dev/null

touch "$out"
for b in end_to_end pipeline solver thermal monte_carlo; do
    echo "==> bench $b" >&2
    cargo bench -q --offline -p ptsim-bench --bench "$b" >> "$out"
done

echo "wrote $out" >&2
cat "$out"

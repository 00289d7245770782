#!/usr/bin/env bash
# Manual service perf gate — runs the fleet-daemon load generator and
# records the trajectory in BENCH_SERVICE.json (one JSON object per line:
# a meta header carrying the git rev, then one result per scenario with
# p50/p99 latency and conversions/sec).
#
# Like scripts/bench.sh, this is NOT part of scripts/ci.sh pass/fail —
# timing on shared machines is too noisy to gate on. ci.sh smoke-runs the
# same binary with a tiny request count and validates the JSON schema only.
#
# Usage: scripts/bench_service.sh [label]
#   label  optional run label (BENCH_SERVICE.<label>.json); default appends
#          to BENCH_SERVICE.json so successive runs accumulate a trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-}"
out="BENCH_SERVICE${label:+.$label}.json"

PTSIM_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A run over uncommitted source changes records the revision they sit on,
# marked as such.
if ! git diff --quiet HEAD -- crates Cargo.toml Cargo.lock 2>/dev/null; then
    PTSIM_BENCH_GIT_REV="$PTSIM_BENCH_GIT_REV-dirty"
fi
PTSIM_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export PTSIM_BENCH_GIT_REV PTSIM_BENCH_DATE

# Pin the request count for recorded runs: the loadgen's own warm-up
# (die calibration + one untimed call per connection) plus a fixed sample
# size keeps successive trajectory entries comparable.
PTSIM_LOADGEN_REQUESTS="${PTSIM_LOADGEN_REQUESTS:-600}"
export PTSIM_LOADGEN_REQUESTS

cargo build --release --offline -p ptsim-bench --bin service_loadgen

touch "$out"
cargo run -q --release --offline -p ptsim-bench --bin service_loadgen >> "$out"

echo "wrote $out" >&2
cat "$out"

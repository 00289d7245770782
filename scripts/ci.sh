#!/usr/bin/env bash
# Tier-1 verification gate — hermetic, offline, zero external dependencies.
#
# The workspace must build and test from a clean checkout with no network
# and an empty cargo registry cache. Every step below runs with --offline;
# if any step tries to touch the registry, that is itself a regression
# (an external dependency crept back into a Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (all targets)"
cargo build --release --offline --all-targets

echo "==> cargo test -q --offline --workspace (root gates + every crate suite)"
cargo test -q --offline --workspace

echo "==> perfbench build (outside the workspace; compiles against the service API)"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench self-tests (percentiles, latency and rate arithmetic, metric list)"
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline --workspace (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --offline (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "==> R1 fault-campaign smoke (12 dies) + metrics snapshot schema"
PTSIM_BENCH_DIES=12 PTSIM_METRICS_JSON=target/metrics_smoke.json \
    cargo run -q --release --offline -p ptsim-bench --bin fault_campaign > /dev/null
python3 - target/metrics_smoke.json <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert set(snap) == {"counters", "gauges", "histograms"}, sorted(snap)
for name, v in snap["counters"].items():
    assert isinstance(v, int) and v >= 0, (name, v)
for name, v in snap["gauges"].items():
    assert isinstance(v, (int, float)), (name, v)
for name, h in snap["histograms"].items():
    assert set(h) == {"lo", "hi", "under", "over", "total", "counts"}, (name, sorted(h))
    assert sum(h["counts"]) == h["total"], name
# The campaign must actually have flowed through the instrumented pipeline.
assert snap["counters"]["pipeline.calibrations"] > 0
assert snap["counters"]["pipeline.conversions"] > 0
assert snap["counters"]["acquire.replicas"] > 0
assert snap["counters"]["mc.dies"] == 12
assert snap["histograms"]["energy.conversion_pj"]["total"] > 0
print(f"metrics snapshot: {len(snap['counters'])} counters, "
      f"{len(snap['gauges'])} gauges, {len(snap['histograms'])} histograms, schema OK")
EOF

echo "==> experiment runner (run_all golden, T1 energy total, unknown ID rejected)"
# results/run_all.txt is every table and figure at default sizes; the run is
# deterministic, so any byte that moves is a changed result. A change that
# means to move one commits the regenerated file:
#   cargo run -q --release --offline -p ptsim-bench --bin run_all > results/run_all.txt
cargo run -q --release --offline -p ptsim-bench --bin run_all > target/run_all.txt
cmp target/run_all.txt results/run_all.txt \
    || { diff results/run_all.txt target/run_all.txt | head -40; exit 1; }
cargo run -q --release --offline -p ptsim-bench --bin run_all T1 > target/run_all_t1.txt
grep -q "^total: 367.5[0-9]* pJ" target/run_all_t1.txt \
    || { echo "run_all T1: 367.5 pJ total missing"; cat target/run_all_t1.txt; exit 1; }
if cargo run -q --release --offline -p ptsim-bench --bin run_all NOPE 2> /dev/null; then
    echo "run_all NOPE: expected a non-zero exit"; exit 1
fi

echo "==> R3 DTM-campaign smoke (8 dies, closed-loop DVFS gates)"
PTSIM_BENCH_DIES=8 PTSIM_DTM_STEPS=80 \
    cargo run -q --release --offline -p ptsim-bench --bin dtm_campaign > /dev/null

echo "==> fleet-service smoke (daemon on ephemeral port, hardened protocol)"
: > target/fleetd_smoke.log
PTSIM_FLEET_DIES=8 PTSIM_FLEET_SHARDS=2 \
    cargo run -q --release --offline -p ptsim-service --bin fleetd \
    > target/fleetd_smoke.log &
FLEETD_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/fleetd_smoke.log 2>/dev/null && break
    sleep 0.1
done
FLEET_ADDR=$(sed -n 's/^ptsim-fleetd listening on //p' target/fleetd_smoke.log)
python3 - "$FLEET_ADDR" <<'EOF'
import json, socket, struct, sys
host, port = sys.argv[1].rsplit(":", 1)

def recvn(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, "connection closed mid-read"
        buf += chunk
    return buf

def read_frame(sock):
    (n,) = struct.unpack(">I", recvn(sock, 4))
    return recvn(sock, n)

def call(sock, payload: bytes):
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    return json.loads(read_frame(sock))

s = socket.create_connection((host, int(port)), timeout=60)
r = call(s, json.dumps({"op": "read", "die": 3, "temp_c": 80.0}).encode())
assert r["ok"] and r["op"] == "read" and r["quality"] == "nominal", r
assert abs(r["temp_c"] - 80.0) < 2.0 and r["energy_pj"] > 0, r
c = call(s, json.dumps({"op": "calibrate", "die": 3}).encode())
assert c["ok"] and c["op"] == "calibrate", c
h = call(s, json.dumps({"op": "health"}).encode())
assert h["ok"] and {sh["state"] for sh in h["shards"]} == {"up"}, h
assert h["counters"]["svc.served"] >= 2, h
# Nothing else is in flight, so the read and the calibrate find their
# shard idle and are served on the connection thread.
assert h["counters"]["svc.served_inline"] >= 1, h
assert h["coalesce_max"] == 1 and h["wire_version"] == 2, h
b = call(s, json.dumps({"op": "batch_read", "die0": 1, "count": 3, "temp_c": 70.0}).encode())
assert b["ok"] and b["op"] == "batch_read" and len(b["items"]) == 3, b
assert [it["die"] for it in b["items"]] == [1, 3, 5], b
assert all(it["ok"] and abs(it["temp_c"] - 70.0) < 2.0 for it in b["items"]), b
overrun = call(s, json.dumps({"op": "batch_read", "die0": 1, "count": 5, "temp_c": 70.0}).encode())
assert not overrun["ok"] and overrun["error"] == "bad_request", overrun
bad = call(s, b"definitely not json")
assert not bad["ok"] and bad["error"] == "bad_request", bad
oob = call(s, json.dumps({"op": "read", "die": 3, "temp_c": 9999}).encode())
assert not oob["ok"] and oob["error"] == "bad_request", oob
# Hand-written frames: members in any order, whitespace and an escaped key
# are served; a number with a leading zero is not JSON; the first of two
# `op` members wins.
spaced = call(s, b'{ "temp_c" : 80.0 ,\n  "\\u0064ie" : 3 , "op" : "read" }')
assert spaced["ok"] and spaced["op"] == "read" and spaced["die"] == 3, spaced
zero = call(s, b'{"op":"read","die":03,"temp_c":80.0}')
assert not zero["ok"] and zero["error"] == "bad_request", zero
twice = call(s, b'{"op":"read","op":"shutdown","die":3,"temp_c":80.0}')
assert twice["ok"] and twice["op"] == "read", twice

# A v2 binary client against the same daemon: hello negotiation, then one
# fixed-width little-endian read while the JSON connection stays v1.
b2 = socket.create_connection((host, int(port)), timeout=60)
b2.sendall(b"PTSV" + bytes([2]))
hello = recvn(b2, 5)
assert hello[:4] == b"PTSV" and hello[4] == 2, hello
req = struct.pack("<BQdBQ", 1, 5, 72.0, 1, 30_000)  # read die 5 @ 72C
b2.sendall(struct.pack(">I", len(req)) + req)
tag, die, temp, vtn, vtp, pj, q = struct.unpack("<BQddddB", read_frame(b2))
assert tag == 1 and die == 5 and abs(temp - 72.0) < 2.0, (tag, die, temp)
assert pj > 0 and q == 0, (pj, q)
# JSON (v1) still works on the original connection after the binary round.
again = call(s, json.dumps({"op": "read", "die": 5, "temp_c": 72.0}).encode())
assert again["ok"] and abs(again["temp_c"] - 72.0) < 2.0, again
b2.close()

# A stall over the live socket: a short-deadline read of the stalled shard
# answers timeout, a long-deadline read waits the stall out and is served,
# and every shard reads up afterwards.
st = call(s, json.dumps({"op": "inject", "die": 2, "fault": "stall", "ms": 300}).encode())
assert st["ok"] and st["op"] == "inject", st
late = call(s, json.dumps({"op": "read", "die": 2, "temp_c": 60.0, "deadline_ms": 50}).encode())
assert not late["ok"] and late["error"] == "timeout", late
waited = call(s, json.dumps({"op": "read", "die": 2, "temp_c": 60.0, "deadline_ms": 5000}).encode())
assert waited["ok"] and abs(waited["temp_c"] - 60.0) < 2.0, waited
h = call(s, json.dumps({"op": "health"}).encode())
assert h["ok"] and {sh["state"] for sh in h["shards"]} == {"up"}, h
# The exact tally of the sequence above: ten admitted requests (the batch
# is one) answer eleven served items; four bad_request answers (the batch
# overrun refused by the fleet, three undecodable frames); one timeout.
# `svc.served_inline` is left out: whether `waited` goes inline depends on
# timing.
counts = {k: v for k, v in h["counters"].items() if k != "svc.served_inline"}
want = dict.fromkeys(counts, 0)
want.update({"svc.requests": 10, "svc.served": 11, "svc.rejected.timeout": 1,
             "svc.rejected.bad_request": 4, "svc.deadline_drops": 1,
             "svc.connections": 2, "svc.bad_frames": 3, "svc.wire_v2_conns": 1,
             "svc.wire_v2_frames": 1})
assert len(counts) == 18 and counts == want, (counts, want)

bye = call(s, json.dumps({"op": "shutdown"}).encode())
assert bye["ok"] and bye["op"] == "shutdown", bye
print("service smoke: read/calibrate/batch/health/raw-json/v2-binary/"
      "malformed/typed-rejection/stall/shutdown OK")
EOF
wait "$FLEETD_PID"

echo "==> service loadgen smoke + BENCH_SERVICE schema"
PTSIM_LOADGEN_REQUESTS=24 PTSIM_LOADGEN_DIES=8 \
    cargo run -q --release --offline -p ptsim-bench --bin service_loadgen \
    > target/bench_service_smoke.json
python3 - target/bench_service_smoke.json <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines and "meta" in lines[0], lines[:1]
names = set()
for obj in lines[1:]:
    assert {"name", "p50_us", "p99_us", "conversions_per_sec", "samples"} <= obj.keys(), obj
    assert obj["samples"] > 0 and obj["p50_us"] > 0, obj
    assert obj["p99_us"] >= obj["p50_us"] and obj["conversions_per_sec"] > 0, obj
    names.add(obj["name"])
assert {"service/read_seq", "service/read_seq_v2", "service/read_concurrent",
        "service/batch_read", "service/health"} <= names, names
print(f"service bench: {len(lines) - 1} scenarios, schema OK")
EOF

echo "==> solver-equivalence smoke (thermal sweep and substep vs reference loops, release FP paths)"
# Debug-mode `cargo test` above already runs the full equivalence suites;
# this re-runs the bit-identity gates against the release binaries, whose
# float codegen is what the benches and the fault campaign actually execute.
# Each filter must match at least one test, so a rename cannot turn a gate
# into a run of nothing.
thermal_smoke() {
    cargo test -q --release --offline -p ptsim-thermal --lib "$1" | tee target/thermal_smoke.txt
    grep -q "test result: ok. [1-9][0-9]* passed" target/thermal_smoke.txt \
        || { echo "thermal smoke: no test matches $1"; exit 1; }
}
thermal_smoke stencil_steady_state_is_bit_identical_to_reference
# The same Gauss-Seidel sweep on random geometries: 1-5 tiers, 1- and
# 2-cell rows and columns.
thermal_smoke sor_sweeps_are_bit_identical_to_reference_on_any_geometry
# The fused transient kernel's row interiors are vectorised only under
# release codegen; its bit-identity to the reference loop must hold there.
thermal_smoke fused_euler_step_is_bit_identical

echo "==> SoA-vs-scalar bit-identity smoke (lane kernel, release FP paths)"
# Same rationale: the lane kernel's bit-identity to the scalar oracle must
# hold under the release float codegen the benches and the fleet daemon run.
cargo test -q --release --offline -p ptsim-core --test lane_equivalence
# The lane and scalar populations share one set of conversion stages, so
# they must record the same metrics too (span counts, errors, health).
cargo test -q --release --offline -p ptsim-core --lib lane_and_scalar_population_metrics_agree
# The lane kernel shares each device's bias factor across same-supply rings;
# the device-level factor/recombination kernels and the batch-vs-loop
# contract must stay bit-identical under release codegen too.
cargo test -q --release --offline -p ptsim-device --lib lane_kernels_match_scalar_per_lane
cargo test -q --release --offline -p ptsim-core --test batch_equivalence
# The decoupling solves take analytic Jacobians from the device and ring
# partials: check those against central differences, and the solves against
# the retained forward-difference oracle, under release codegen too.
cargo test -q --release --offline -p ptsim-device --lib partials_match_central_differences
cargo test -q --release --offline -p ptsim-circuit --lib ln_frequency_partials_match_central_differences
cargo test -q --release --offline -p ptsim-core --lib analytic_jacobian_matches_the_forward_difference_oracle
# Each conversion solve starts at a temperature predicted from a design-time
# TSRO table; the calibration-point start stays as its oracle: same root,
# no more iterations, same escalation rung, lane kernel bit for bit.
cargo test -q --release --offline -p ptsim-core --lib predicted_start_matches_the_calibration_point_oracle
# The characterized model's normal equations fill only the upper triangle
# of AᵀA and mirror it; that must equal the full fill bit for bit under
# release codegen too, which may vectorise the triangular inner loop.
cargo test -q --release --offline -p ptsim-core --lib triangular_fill_matches_the_full_fill_bit_for_bit

echo "==> bench smoke (1 sample, parse-only — timing never gates CI)"
# Keeps every bench binary buildable and its JSON output machine-parseable;
# scripts/bench.sh is the manual perf run that records BENCH_PIPELINE.json.
for b in end_to_end pipeline solver thermal monte_carlo; do
    PTSIM_BENCH_SAMPLES=1 cargo bench -q --offline -p ptsim-bench --bench "$b"
done | python3 -c '
import json, sys
lines = [l for l in sys.stdin if l.strip()]
assert lines, "bench smoke emitted no output"
names = []
for l in lines:
    obj = json.loads(l)
    if "meta" in obj:
        continue
    if "metrics" in obj:
        snap = obj["metrics"]
        assert {"counters", "gauges", "histograms"} <= snap.keys(), l
        continue
    assert {"name", "median_ns", "samples"} <= obj.keys(), l
    names.append(obj["name"])
assert names, "bench smoke emitted no results"
assert "steady_state_gs/16" in names, "Gauss-Seidel oracle bench missing"
assert "transient_step_warm_16x16x4" in names, "warm transient-step bench missing"
assert "batch_convert_100" in names, "lane-kernel population bench missing"
assert "batch_convert_scalar_100" in names, "scalar-oracle population bench missing"
print(f"bench smoke: {len(names)} benchmarks, JSON OK")
'

echo "tier-1 gate: OK"

#!/usr/bin/env bash
# Repository quality gate: formatting, lints, build, the full test suite
# (including the orchestration determinism/resume tests, which run as part
# of the default `cargo test`), the build and tests of the bvbench
# benchmark package, a short traced run of each bvbench workload that must
# pass its fidelity checks, and the perf-regression gate (`bvsim bench --quick`
# against the committed BENCH.json baseline).
#
# Usage: ci/check.sh [--quick]
#   --quick   skip workspace tests and the smoke runs, but still build
#             release and run the bench gate so a hot-path layout
#             regression fails fast on every run
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

# One retry for the perf gate: on a shared host a background burst can
# swallow an entire timing window and read as a regression. A real
# regression reproduces on the immediate rerun; a burst almost never does.
bench_gate() {
    ./target/release/bvsim bench --quick \
        --out target/BENCH.quick.json --baseline BENCH.json --max-regress 20 \
        || ./target/release/bvsim bench --quick \
            --out target/BENCH.quick.json --baseline BENCH.json --max-regress 20
}

if [[ "${1:-}" == "--quick" ]]; then
    echo "quick mode: skipping doc/tests/smokes, keeping the bench gate"
    echo "== cargo build --release =="
    cargo build --release
    echo "== bvsim bench --quick (perf gate vs committed BENCH.json) =="
    bench_gate
    exit 0
fi

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (workspace) =="
cargo test --workspace -q

# bvbench is a package of its own (empty [workspace]) that builds against
# the crates' public API, so the workspace build above never compiles it.
echo "== bvbench build + tests (the benchmark still compiles and passes) =="
cargo build --release --offline --manifest-path bvbench/Cargo.toml
cargo test --offline --manifest-path bvbench/Cargo.toml -q

echo "== bvbench fidelity (every workload, traced, 2 s each) =="
# A traced run rebuilds the single-core drive loop from public bv-sim calls
# and checks it bit for bit against run_with_warmup, and every workload
# checks its outputs, so hot-path drift fails here. The step needs the
# result line to say "correct": true with no failed operation.
for workload in sweep-reuse serve-mix kv-mix; do
    RESULT=$(cargo run --release --quiet --offline --manifest-path bvbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$RESULT" || ! grep -q '"failed": 0,' <<<"$RESULT"; then
        echo "bvbench $workload: fidelity checks failed: $RESULT" >&2
        exit 1
    fi
done

echo "== bvsim bench --quick (perf gate vs committed BENCH.json) =="
bench_gate

echo "== CLI smoke (a bad LLC geometry is a one-line error, not a panic) =="
GEOM_STATUS=0
GEOM_ERR=$(./target/release/bvsim --trace specint.mcf.07 --ways 0 2>&1 >/dev/null) \
    || GEOM_STATUS=$?
if [[ "$GEOM_STATUS" != 1 || "$(grep -c '^error:' <<<"$GEOM_ERR")" != 1 ]] \
    || grep -q panicked <<<"$GEOM_ERR"; then
    echo "CLI smoke: --ways 0 must exit 1 with one error: line and no panic," \
         "got status $GEOM_STATUS:" >&2
    echo "$GEOM_ERR" >&2
    exit 1
fi

echo "== telemetry smoke (run --telemetry, then report) =="
./target/release/bvsim --trace specint.mcf.07 --llc base-victim \
    --warmup 50000 --insts 200000 \
    --telemetry target/telemetry-smoke.jsonl --epoch 50000 >/dev/null
./target/release/bvsim report target/telemetry-smoke.jsonl >/dev/null

echo "== events smoke (trace capture, then the divergence auditor) =="
./target/release/bvsim trace --trace specint.mcf.07 --llc-mb 1 --ways 8 \
    --warmup 100000 --budget 200000 --kinds eviction,victim-hit \
    --capacity 4096 --out target/events-smoke.jsonl >/dev/null
# A clean audit must pass; an injected fault must be caught (both exit 0).
./target/release/bvsim trace --audit --ops 5000 >/dev/null
./target/release/bvsim trace --audit --ops 5000 --inject 800 >/dev/null

echo "== kv smoke (org sweep, then the baseline-mirror auditor) =="
./target/release/bvsim kv --sweep --warmup 10000 --requests 40000 \
    --budget-kib 256 >/dev/null
# Same convention as the LLC auditor: clean run and self-test both exit 0,
# on every request profile.
for dist in web analytics social; do
    ./target/release/bvsim kv --lockstep --dist "$dist" --requests 20000 \
        --budget-kib 256 >/dev/null
    ./target/release/bvsim kv --lockstep --dist "$dist" --requests 20000 \
        --budget-kib 256 --inject 5000 >/dev/null
done

echo "== fuzz smoke (fixed-seed campaign, inject self-test, corpus replay) =="
# A fixed seed keeps CI deterministic; any failure exits nonzero with a
# minimized reproducer on stdout.
./target/release/bvsim fuzz --cases 25 --seed 1 >/dev/null
# Self-test: plant a fault in each domain's auditor and require the
# campaign machinery to detect it and shrink the witness. An undetected
# injected fault exits nonzero — the fuzzer finding nothing must mean
# there is nothing, not that it cannot see.
./target/release/bvsim fuzz --inject >/dev/null
# Every committed reproducer must replay green (fixed bugs stay fixed,
# injected faults stay detected).
for repro in tests/corpus/*.bvfuzz.json; do
    ./target/release/bvsim fuzz --replay "$repro" >/dev/null
done

echo "== serve smoke (daemon, worker kill, dedup, metrics, restart recovery) =="
# A live bvsim-serve-v1 daemon on an ephemeral port: arm a worker crash,
# submit a tiny sweep, and require completion with zero lost and zero
# duplicate simulations. Scrape the live /metrics endpoint and require the
# counters to agree with what just happened. Then restart the daemon
# against the same journal and require the identical grid to re-simulate
# nothing.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SERVE_DIR"' EXIT
serve_grid() {
    ./target/release/bvsim submit --addr "$1" \
        --traces specint.mcf.07,client.octane.00 \
        --llcs uncompressed,base-victim \
        --warmup 1000 --insts 2000 --out "$2"
}
./target/release/bvsim serve --addr 127.0.0.1:0 --workers 2 \
    --metrics-port 0 \
    --journal "$SERVE_DIR/journal" --port-file "$SERVE_DIR/serve.addr" \
    >"$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$SERVE_DIR/serve.addr.metrics" ]] && break
    sleep 0.1
done
ADDR=$(cat "$SERVE_DIR/serve.addr")
METRICS_ADDR=$(cat "$SERVE_DIR/serve.addr.metrics")
# Kill a worker mid-sweep: the monitor must re-queue its job and spawn a
# replacement, and the sweep must still complete.
./target/release/bvsim ctl --addr "$ADDR" --kill-worker 0 >/dev/null
serve_grid "$ADDR" "$SERVE_DIR/rows.jsonl" >/dev/null
ROWS=$(wc -l <"$SERVE_DIR/rows.jsonl")
JOURNALED=$(wc -l <"$SERVE_DIR/journal/runs.jsonl")
if [[ "$ROWS" != 4 || "$JOURNALED" != 4 ]]; then
    echo "serve smoke: expected 4 rows + 4 journal lines after worker kill," \
         "got $ROWS rows, $JOURNALED journal lines" >&2
    exit 1
fi
# Capture before grep -q: an early pipe close would SIGPIPE the client.
STATUS=$(./target/release/bvsim ctl --addr "$ADDR" --status)
grep -q "1 worker crash(es)" <<<"$STATUS" \
    || { echo "serve smoke: worker crash not recorded in status" >&2; exit 1; }
# Scrape the Prometheus endpoint on the live daemon over plain HTTP
# (bash /dev/tcp, so CI needs no curl): the sweep that just ran must
# show up as completed jobs, and the kill-worker drill as a crash.
exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
SCRAPE=$(cat <&3)
exec 3<&- 3>&-
grep -q '^jobs_completed_total{source="simulated"} [1-9]' <<<"$SCRAPE" \
    || { echo "serve smoke: /metrics shows no completed jobs" >&2; exit 1; }
grep -q '^worker_crashes_total [1-9]' <<<"$SCRAPE" \
    || { echo "serve smoke: /metrics missed the worker crash" >&2; exit 1; }
# The live dashboard renders one frame from the same daemon.
TOP=$(./target/release/bvsim top --addr "$ADDR" --once)
grep -q "1 crash(es)" <<<"$TOP" \
    || { echo "serve smoke: bvsim top missed the worker crash" >&2; exit 1; }
./target/release/bvsim ctl --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
# Restart on the same journal: the grid must be served entirely from disk.
./target/release/bvsim serve --addr 127.0.0.1:0 --workers 2 \
    --journal "$SERVE_DIR/journal" --port-file "$SERVE_DIR/serve2.addr" \
    >>"$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$SERVE_DIR/serve2.addr" ]] && break
    sleep 0.1
done
ADDR=$(cat "$SERVE_DIR/serve2.addr")
RESUBMIT=$(serve_grid "$ADDR" "$SERVE_DIR/rows2.jsonl")
grep -q "4 job(s): 0 fresh, 4 journaled" <<<"$RESUBMIT" \
    || { echo "serve smoke: restart re-simulated journaled work" >&2; exit 1; }
./target/release/bvsim ctl --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
if [[ "$(wc -l <"$SERVE_DIR/journal/runs.jsonl")" != 4 ]]; then
    echo "serve smoke: restart appended duplicate journal lines" >&2
    exit 1
fi

echo "All checks passed."

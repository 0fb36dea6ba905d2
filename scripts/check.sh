#!/usr/bin/env sh
# Repo health gate: formatting, lints (warnings are errors), full tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

# Scratch space for every gate's outputs, removed however the script exits.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# same_output WHAT A B: fails the script when two runs' outputs differ.
same_output() {
    if ! cmp -s "$2" "$3"; then
        echo "$1 differs" >&2
        diff "$2" "$3" >&2 || true
        exit 1
    fi
}

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

echo "== throughput smoke (events/sec regression gate) =="
# The gate runs on the wheel scheduler — the default, and the one whose
# performance we ship.
cargo build --release -q -p bench --bin throughput
IPFS_REPRO_CSV_DIR="$WORK" IPFS_REPRO_SCHED=wheel ./target/release/throughput --smoke \
    --check-against results/BENCH_throughput_smoke_baseline.json

echo "== scheduler equivalence (heap vs wheel digest gate) =="
# The timing wheel must be order-exactly equivalent to the BinaryHeap
# reference: a digest run (deterministic event/walk counts + metrics
# fingerprint, no wall-clock values) must be byte-identical under both.
IPFS_REPRO_SCHED=heap ./target/release/throughput --smoke --digest \
    > "$WORK/heap.txt" 2> /dev/null
IPFS_REPRO_SCHED=wheel ./target/release/throughput --smoke --digest \
    > "$WORK/wheel.txt" 2> /dev/null
same_output "throughput --smoke --digest between IPFS_REPRO_SCHED=heap and =wheel" \
    "$WORK/heap.txt" "$WORK/wheel.txt"

echo "== PDES equivalence (serial vs sharded digest gate) =="
# The region-sharded engine must reproduce the serial total order exactly:
# a digest run (event counts, (time,key) order fingerprints, metrics
# fingerprints, bytes/node — no wall-clock values) must be byte-identical
# at IPFS_REPRO_SHARDS=1 (the exact serial path) and =6.
IPFS_REPRO_SHARDS=1 ./target/release/throughput --smoke --digest \
    > "$WORK/serial.txt" 2> /dev/null
IPFS_REPRO_SHARDS=6 ./target/release/throughput --smoke --digest \
    > "$WORK/sharded.txt" 2> /dev/null
same_output "throughput --smoke --digest between IPFS_REPRO_SHARDS=1 and =6" \
    "$WORK/serial.txt" "$WORK/sharded.txt"

echo "== dtrace equivalence (tracing on/off digest gate) =="
# Tracing (op logs, distributed fragments, the flight recorder and its
# post-mortems) observes, never perturbs: a digest run must be
# byte-identical with IPFS_REPRO_DTRACE unset and =1.
./target/release/throughput --smoke --digest > "$WORK/off.txt" 2> /dev/null
IPFS_REPRO_DTRACE=1 ./target/release/throughput --smoke --digest \
    > "$WORK/on.txt" 2> /dev/null
same_output "throughput --smoke --digest between IPFS_REPRO_DTRACE unset and =1" \
    "$WORK/off.txt" "$WORK/on.txt"

echo "== dtrace overhead (tracing throughput budget gate) =="
# Full tracing (collection and post-mortems, which also fill the flight
# rings) must keep the smoke sim cell at >= 0.8x the untraced events/sec
# (exit 1 inside the bin if not).
./target/release/throughput --overhead-check

echo "== chaos smoke (fault-injection determinism gate) =="
# The chaos harness must exit 0 and print byte-identical output whether
# its scenario cells run serially or on 4 worker threads.
cargo build --release -q -p bench --bin chaos
IPFS_REPRO_JOBS=1 ./target/release/chaos --smoke > "$WORK/chaos_j1.txt"
IPFS_REPRO_JOBS=4 ./target/release/chaos --smoke > "$WORK/chaos_j4.txt"
same_output "chaos --smoke output between IPFS_REPRO_JOBS=1 and =4" \
    "$WORK/chaos_j1.txt" "$WORK/chaos_j4.txt"

echo "== gateway fleet smoke (determinism + requests/sec regression gate) =="
# The fleet harness must exit 0, stay byte-identical on stdout whether its
# cells run serially or on 4 workers, and hold the headline cell's
# sustained requests/sec within 0.7x of the recorded baseline.
cargo build --release -q -p bench --bin gateway_fleet
IPFS_REPRO_JOBS=1 ./target/release/gateway_fleet --smoke > "$WORK/fleet_j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 ./target/release/gateway_fleet --smoke \
    --check-against results/BENCH_gateway_fleet.json > "$WORK/fleet_j4.txt"
same_output "gateway_fleet --smoke output between IPFS_REPRO_JOBS=1 and =4" \
    "$WORK/fleet_j1.txt" "$WORK/fleet_j4.txt"

echo "== swarm smoke (determinism + goodput regression gate) =="
# The swarm-transfer harness must exit 0, stay byte-identical on stdout
# whether its cells run serially or on 4 workers, and hold the headline
# cell's events/sec within 0.7x of the recorded smoke baseline.
cargo build --release -q -p bench --bin swarm
IPFS_REPRO_JOBS=1 ./target/release/swarm --smoke > "$WORK/swarm_j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 ./target/release/swarm --smoke \
    --check-against results/BENCH_swarm_smoke_baseline.json > "$WORK/swarm_j4.txt"
same_output "swarm --smoke output between IPFS_REPRO_JOBS=1 and =4" \
    "$WORK/swarm_j1.txt" "$WORK/swarm_j4.txt"

echo "== lifecycle smoke (determinism + events/sec gates) =="
# The content-lifecycle harness must exit 0 and print byte-identical
# stdout (a) serially vs on 4 workers and (b) with the PDES cell on 1 vs 4
# shards, while holding the headline cell's events/sec within 0.7x of the
# recorded smoke baseline.
cargo build --release -q -p bench --bin lifecycle
IPFS_REPRO_JOBS=1 IPFS_REPRO_SHARDS=1 ./target/release/lifecycle --smoke \
    > "$WORK/life_j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 IPFS_REPRO_SHARDS=4 ./target/release/lifecycle --smoke \
    --check-against results/BENCH_lifecycle_smoke_baseline.json > "$WORK/life_j4.txt"
same_output "lifecycle --smoke output between jobs/shards 1 and 4" \
    "$WORK/life_j1.txt" "$WORK/life_j4.txt"

echo "== latency smoke (span-attribution determinism gate) =="
# The latency-attribution harness must exit 0, emit its table + JSON, and
# print byte-identical artifacts whether cells run serially or on 4
# workers (stdout and both written files are compared).
cargo build --release -q -p bench --bin latency
IPFS_REPRO_JOBS=1 ./target/release/latency --smoke --out "$WORK/lat_j1" \
    --trace-out "$WORK/lat_j1/traces.json" > /dev/null
IPFS_REPRO_JOBS=4 ./target/release/latency --smoke --out "$WORK/lat_j4" \
    --trace-out "$WORK/lat_j4/traces.json" > /dev/null
for f in tab_latency_attribution.txt BENCH_latency.json traces.json; do
    same_output "latency --smoke $f between IPFS_REPRO_JOBS=1 and =4" \
        "$WORK/lat_j1/$f" "$WORK/lat_j4/$f"
done
grep -q '"dominant_component": "dht_walk"' "$WORK/lat_j1/BENCH_latency.json" || {
    echo "latency --smoke: DHT walk is not the dominant component" >&2
    exit 1
}

echo "All checks passed."

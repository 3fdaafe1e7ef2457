#!/usr/bin/env bash
# Full verification gate: release build, all tests, pedantic lints.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Pipeline throughput smoke: sequential vs parallel at 1/2/4 threads plus
# the direct-vs-FFT FIR crossover; asserts thread-count invariance. The
# run is written to target/BENCH_pipeline.json and gated against the
# committed BENCH_pipeline.json, which a verification pass never
# rewrites: the bench exits nonzero if 1-thread detector or 1-thread
# pipeline throughput drops >20% below the committed number (skipped,
# with a logged reason, on hosts too small to run the sweep unshared).
# Updating the committed baseline is an explicit step: copy the target/
# file over it.
mkdir -p target
cargo run -q --release -p emprof-bench --bin perf_pipeline -- --smoke --out target/BENCH_pipeline.json --check-against BENCH_pipeline.json

# Served-equals-batch equivalence: random signals, frame sizes, FLUSH
# patterns, and concurrent sessions against a real loopback server.
cargo test -q --release --test serve_equivalence

# Serve soak smoke: 4 concurrent sessions for a bounded duration; fails
# on any lost event, queue-bound violation, or counter drift.
cargo run -q --release -p emprof-bench --bin serve_soak -- --smoke --seconds 8

# Fault-layer properties: NaN/±inf never alter events on surviving
# samples; the injector is deterministic and batch-boundary invariant.
cargo test -q --release --test prop_fault

# Adaptive calibration: with the knob off, all three detector paths are
# bit-identical to the legacy fixed-threshold path; with it on, they
# still agree bit-for-bit and the adapted threshold tracks a pure
# attenuation ramp monotonically.
cargo test -q --release --test adaptive_equivalence

# Transport resilience and exactly-once delivery: kill-and-resume at
# arbitrary frame boundaries is invisible in the served events; replies
# lost inside the §10 kill window (finalized and offered, never acked)
# are redelivered without loss or duplication; a journaled server killed
# mid-stream recovers its sessions bit-identically.
cargo test -q --release --test serve_resilience

# Journal recovery properties: truncation at any byte offset and any
# single-byte flip recover the longest valid prefix — never a panic,
# never silently corrupted samples.
cargo test -q --release --test prop_store

# Chaos soak smoke: concurrent sessions streaming faulted signals while
# their connections are repeatedly severed; fails if any session fails
# to resume or any served profile diverges from batch on the faulted
# signal.
cargo run -q --release -p emprof-bench --bin chaos_soak -- --smoke --seconds 8

# Store soak smoke: a journaled server repeatedly killed inside the
# lost-reply window and rebound over the same journal directory; fails
# on any event loss/duplication or leftover journal residue.
cargo run -q --release -p emprof-bench --bin store_soak -- --smoke --seconds 8

# Query-equals-replay properties: arbitrary event streams, truncation
# damage, legacy footer-less segments, windows, filters and timelines —
# every query result is bit-identical to a full replay, cached or cold,
# including a regression race of queries against live ack-driven
# compaction.
cargo test -q --release --test prop_query

# Query soak smoke: concurrent QUERY clients against a live journaled
# server ingesting chaos-faulted sessions; fails if any query errors
# under churn, any quiesced result diverges from local replay, or the
# decoded-segment cache hit-rate falls below its floor.
cargo run -q --release -p emprof-bench --bin query_soak -- --smoke

# Routed-equals-direct: sessions streamed through the sharded router —
# across resumes, backend kills (journal-handoff migration), and
# runtime JOIN/LEAVE — serve events bit-identical to a single-node
# batch run; the consistent-hash ring's minimal-movement guarantee is
# proven over arbitrary topologies.
cargo test -q --release --test router_equivalence
cargo test -q --release --test router_chaos
cargo test -q --release --test prop_ring

# Router soak smoke: concurrent faulted sessions through a 3-backend
# fleet with forced severs, plus a deterministic kill-and-rebalance
# phase (backend killed mid-stream, replacement joined at runtime);
# fails on any event mismatch vs batch or any lossy migration.
cargo run -q --release -p emprof-bench --bin router_soak -- --smoke

# Remote-equals-local observability: a METRICS frame decoded by the
# client and a /metrics HTTP scrape must both reproduce the server's
# in-process telemetry snapshot exactly; a forced transport loss must
# dump the session's flight recorder with its trace id and spans.
cargo test -q --release --test obs_wire
cargo test -q --release --test prop_prom

# Fleet-dashboard loopback smoke: a short-lived served process with the
# scrape listener on, one `emprof top --once` poll against it, and a
# raw /metrics scrape that must answer 200 with emprof_ families.
cargo build -q --release -p emprof-cli --bin emprof
TOP_OUT="$(mktemp)"
./target/release/emprof serve --addr 127.0.0.1:7731 --metrics-addr 127.0.0.1:7732 --duration 30 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
top_ok=0
for _ in $(seq 1 50); do
  if ./target/release/emprof top --addr 127.0.0.1:7731 --once >"$TOP_OUT" 2>/dev/null; then
    top_ok=1
    break
  fi
  sleep 0.2
done
[ "$top_ok" = 1 ] || { echo "verify: emprof top --once never connected" >&2; exit 1; }
grep -q "totals:" "$TOP_OUT" || { echo "verify: emprof top output missing totals" >&2; exit 1; }
exec 3<>/dev/tcp/127.0.0.1/7732
printf 'GET /metrics HTTP/1.1\r\nHost: emprof\r\nConnection: close\r\n\r\n' >&3
SCRAPE="$(cat <&3)"
exec 3>&- 3<&-
echo "$SCRAPE" | grep -q "HTTP/1.1 200" || { echo "verify: /metrics scrape not 200" >&2; exit 1; }
echo "$SCRAPE" | grep -q "# TYPE emprof_" || { echo "verify: scrape missing emprof_ families" >&2; exit 1; }
echo "$SCRAPE" | grep -q "emprof_server_healthy 1" || { echo "verify: scrape missing health gauge" >&2; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT
rm -f "$TOP_OUT"

echo "verify: OK"

#!/usr/bin/env bash
# Full verification gate: release build, every workspace crate's tests,
# pedantic lints, warning-free rustdoc.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Formatting: every package in the workspace is rustfmt-clean.
cargo fmt --all --check

# Rustdoc with warnings denied: broken or ambiguous intra-doc links
# (and public docs linking private items) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Simulator skip-equals-step: the loop that jumps over frozen cycles
# returns the same SimResult as the cycle-stepping loop, bit for bit,
# on every device preset, generated instruction streams and
# microbenchmark programs; run optimised too, not only in the debug
# workspace pass.
cargo test -q --release -p emprof-sim

# Bit-identity of the generator, simulator and receiver, optimised: the
# golden fingerprints (every SPEC-like preset's instruction stream,
# SimResult and capture bits, recorded before the division-free
# simulator paths and the multi-output anti-alias kernel), and the
# group kernel against single-output evaluation at every edge.
cargo test -q --release -p emprof-workloads -p emprof-signal -p emprof-emsim

# Bit-identity of the fused normalize-and-detect kernel, optimised: its
# extreme updates are written to lower to single min/max instructions,
# so the kernel against the multi-pass reference, streaming against
# batch and parallel against sequential detection run on the shipped
# codegen too, not only in the debug workspace pass.
cargo test -q --release --test prop_fused --test prop_streaming --test par_equivalence --test prop_parallel

# Pipeline throughput smoke: sequential vs parallel at 1/2/4 threads
# (capped at the host's parallelism) for the detector and the
# sim→EM→detect chain; asserts thread-count invariance. The run is written to
# target/BENCH_pipeline.json and gated against the committed
# BENCH_pipeline.json, which a verification pass never rewrites: the
# bench exits nonzero if 1-thread detector or 1-thread pipeline
# throughput drops >20% below the committed number. Updating the
# committed baseline is an explicit step: copy the target/ file over it.
mkdir -p target
cargo run -q --release -p emprof-bench --bin perf_pipeline -- --smoke --out target/BENCH_pipeline.json --check-against BENCH_pipeline.json

# Served-equals-batch equivalence: random signals, frame sizes, FLUSH
# patterns, and concurrent sessions against a real loopback server.
cargo test -q --release --test serve_equivalence

# Bit-identity of the CRC-32 kernels, optimised: the fold (a vectorized
# XOR recurrence over a sparse multiple of the polynomial) against a
# bytewise reference at every length around its threshold, at every byte
# offset and from registers other than the initial one, the lanes, and
# the identity the fold rests on; then the golden wire and journal
# bytes, which every checksum on disk and on the wire must still match.
cargo test -q --release -p emprof-store --lib crc
cargo test -q --release --test journal_golden --test wire_golden

# Wire codec, the served wire surface, and the allocation-free SAMPLES
# paths (decode alone; decode, raw journal append and pooled copy
# together; the replay buffer's encode, push, prune and reuse cycle),
# run optimised too: the payload codecs are generated from their
# declarations, and the allocation counts are only meaningful as
# shipped.
cargo test -q --release --test prop_codec --test serve_wire --test alloc_ingest --test alloc_journal --test alloc_replay

# The store's unit tests, optimised: the segment walk, the sort-dedup
# fold and the codecs (the CRC-32 tests above run again here).
cargo test -q --release -p emprof-store

# Serve soak: 4 concurrent sessions for a fixed number of rounds, their
# workers slowed so the sessions fill their queues; fails on any lost
# event, counter drift, or a peak queue depth other than the bound, or
# if no push ever waited on a full queue. Every
# soak scenario streams the same inputs on every run, and each failure
# line ends with the `soak <scenario> --rounds R` command that replays it.
cargo run -q --release -p emprof-bench --bin soak -- serve

# Fault-layer properties: NaN/±inf never alter events on surviving
# samples; the injector is deterministic and batch-boundary invariant.
cargo test -q --release --test prop_fault

# Adaptive calibration: with the knob off, batch, parallel and streaming
# detection are bit-identical static detectors; with it on, they still
# agree bit-for-bit and the adapted threshold tracks a pure attenuation
# ramp monotonically.
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

# Chaos soak: concurrent sessions streaming faulted signals while
# their connections are repeatedly severed and replies lost; fails if
# any session fails to resume or any served profile diverges from batch
# on the faulted signal, or on the metrics-sanity or probe-walk phase.
cargo run -q --release -p emprof-bench --bin soak -- chaos

# Store soak: a journaled server repeatedly killed inside the
# lost-reply window and rebound over the same journal directory; fails
# on any event loss/duplication, leftover journal residue, or a
# crash-surviving segment with an unparseable header.
cargo run -q --release -p emprof-bench --bin soak -- store

# Query-equals-replay properties: arbitrary event streams, truncation
# damage, legacy footer-less segments, windows, filters and timelines —
# every query result is bit-identical to a full replay, cached or cold,
# including a regression race of queries against live ack-driven
# compaction. prop_query_samples adds journals holding Samples records,
# which queries check without decoding, damaged by truncation, a byte
# flip in a sealed segment's Samples payload, or a Samples count that
# disagrees with its length under a valid CRC. Queries walk a session's
# cache-missed segments on EMPROF_THREADS workers; the second run pins
# one worker so many-core hosts also check the sequential path.
cargo test -q --release --test prop_query --test prop_query_samples
EMPROF_THREADS=1 cargo test -q --release --test prop_query --test prop_query_samples

# Query soak: concurrent QUERY clients against a live journaled
# server ingesting chaos-faulted sessions; fails if any query errors
# under churn, any quiesced result diverges from local replay, or the
# decoded-segment cache hit-rate falls below its floor.
cargo run -q --release -p emprof-bench --bin soak -- query

# Routed-equals-direct: sessions streamed through the sharded router —
# across resumes, backend kills (journal-handoff migration), and
# runtime JOIN/LEAVE — serve events bit-identical to a single-node
# batch run; the consistent-hash ring's minimal-movement guarantee is
# proven over arbitrary topologies.
cargo test -q --release --test router_equivalence
cargo test -q --release --test router_chaos
cargo test -q --release --test prop_ring

# Router soak: concurrent faulted sessions through a 3-backend fleet
# with forced severs, plus a deterministic kill-and-rebalance phase
# (backend killed mid-stream, replacement joined at runtime); fails on
# any event mismatch vs batch or any lossy migration.
cargo run -q --release -p emprof-bench --bin soak -- router

# Remote-equals-local observability: a METRICS frame decoded by the
# client and a /metrics HTTP scrape must both reproduce the server's
# in-process telemetry snapshot exactly; a forced transport loss must
# dump the session's flight recorder with its trace id and spans.
cargo test -q --release --test obs_wire
cargo test -q --release --test prop_prom

# Fleet-dashboard loopback smoke: a short-lived served process with the
# scrape listener on, one `emprof top --once` poll against it, a raw
# /metrics scrape that must answer 200 with emprof_ families, and the
# same scrape of a router in front of it.
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

# Router scrape smoke: a router in front of the served process answers
# its own /metrics with the backend's health row typed and up.
./target/release/emprof router --backends b0=127.0.0.1:7731 --addr 127.0.0.1:7733 \
  --metrics-addr 127.0.0.1:7734 --duration 30 &
ROUTER_PID=$!
trap 'kill "$SERVE_PID" "$ROUTER_PID" 2>/dev/null || true' EXIT
router_ok=0
for _ in $(seq 1 50); do
  ROUTER_SCRAPE="$( (exec 3<>/dev/tcp/127.0.0.1/7734 \
    && printf 'GET /metrics HTTP/1.1\r\nHost: emprof\r\nConnection: close\r\n\r\n' >&3 \
    && cat <&3) 2>/dev/null || true)"
  if grep -q "HTTP/1.1 200" <<<"$ROUTER_SCRAPE" \
    && grep -q "# TYPE emprof_router_backend_up gauge" <<<"$ROUTER_SCRAPE" \
    && grep -Eq '^emprof_router_backend_up\{backend="b0"[^}]*\} 1$' <<<"$ROUTER_SCRAPE"; then
    router_ok=1
    break
  fi
  sleep 0.2
done
[ "$router_ok" = 1 ] || { echo "verify: router /metrics never showed backend b0 up" >&2; exit 1; }

# Routed push equals local profile: a short simulated capture pushed
# through the router, addressed by host name so the client resolves it,
# detects the same events as profiling the capture locally.
SIGNAL_CSV="$(mktemp)"
LOCAL_EVENTS="$(mktemp)"
ROUTED_EVENTS="$(mktemp)"
./target/release/emprof simulate microbench:64:1 --signal-out "$SIGNAL_CSV" >/dev/null
./target/release/emprof profile "$SIGNAL_CSV" --rate 40e6 --clock 1.008e9 \
  --events-out "$LOCAL_EVENTS" >/dev/null
./target/release/emprof push "$SIGNAL_CSV" --rate 40e6 --clock 1.008e9 \
  --addr localhost:7733 --events-out "$ROUTED_EVENTS" >/dev/null
cmp "$LOCAL_EVENTS" "$ROUTED_EVENTS" \
  || { echo "verify: routed push events differ from the local profile" >&2; exit 1; }
rm -f "$SIGNAL_CSV" "$LOCAL_EVENTS" "$ROUTED_EVENTS"
kill "$SERVE_PID" "$ROUTER_PID" 2>/dev/null || true
wait "$SERVE_PID" "$ROUTER_PID" 2>/dev/null || true
trap - EXIT
rm -f "$TOP_OUT"

echo "verify: OK"

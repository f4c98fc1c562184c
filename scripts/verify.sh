#!/usr/bin/env bash
# Tier-1 verification gate: everything must pass before merging.
#
#   ./scripts/verify.sh
#
# 1. Release build of the whole workspace, then the lint gate: rustfmt
#    (`cargo fmt --all -- --check`) and clippy with every warning an
#    error (`cargo clippy --offline --workspace --all-targets -- -D
#    warnings`). The benchmark under perfbench/ is its own workspace and
#    is not linted here.
# 2. Full test suite (unit + property + integration).
# 3. Offline-build guard: the workspace must build with no registry
#    access at all (zero external dependencies is a hard invariant).
# 4. Pricing cross-check, in release. The independent timing oracle
#    (`cachetime --test reference_engine`) re-derives cycles, stalls and
#    memory traffic from the machine description and checks both
#    `simulate` and `replay_many` against it over random timing axes.
#    Beside it, batch-vs-stream equivalence: a stored recording repriced
#    by `replay`/`replay_many` must be bit-identical per grid cell to the
#    streamed one-lane `simulate`, also when one batched replay groups
#    timing points into classes and when its lanes mix the clean-miss
#    kernel with the general path. The cache oracle (`cachetime-cache
#    --test oracle`) runs there too: the frame store against a naive
#    model for blocks of 1-256 words, across every dirty-mask limb
#    boundary. So do the packed op stream's checks: the round-trip
#    property over random op sequences (every truncation and single-byte
#    flip errors or decodes to ops that re-encode and decode to
#    themselves), an overlong field that decodes to the ops it holds
#    (`an_overlong_field_decodes_to_the_same_ops`), the golden encoding
#    of one recording, and the bytes-per-op bound over the sweep catalog
#    (`cachetime --lib op_stream`, `--test op_stream`).
#    Beside them, the decoder's differential property: random op streams
#    whose generator reaches every first-byte code
#    (`generated_streams_reach_every_code`) are priced by decoding
#    straight into a lane bank and by handing the generated ops to the
#    bank with no decode, on a one-lane and a mixed bank, bit-identically
#    (`sink_replay_matches_apply_bit_for_bit`). The stream check refuses
#    the op shapes no walk emits (`a_stream_no_walk_writes_is_rejected`),
#    and every byte flip of a stream that it accepts prices on both banks
#    without a panic (`checked_streams_price_without_panicking`). Each
#    name-filtered run fails if its filter matched no test.
# 5. Small-scale `cachetime-bench sweep`: a serial repricing pass prices
#    one cell per organization from scratch (`simulate`) back to back
#    with that organization's record + one `replay_many` over the 16-point
#    axis, and asserts the cell equals its replay lane bit for bit (the
#    88 cells cover every trace, size and cycle time). It counts the spans
#    a serial two-phase pass finishes, prices them at the per-span cost
#    measured in the same process, and asserts that stays under 2% of the
#    pass's wall time. Refreshes BENCH_sweep.json.
# 6. Server smoke test: start `ctserve` on an ephemeral port, drive
#    simulate + replay + stats through `cachetime-bench serve-check`
#    (which asserts the responses are bit-identical to a direct
#    Simulator::run, that the raw result bytes of the simulate body are
#    exactly `sim_result_to_json(..).to_string()`, and that the whole raw
#    replay body is exactly the `{"key":...,"results":[...]}` envelope
#    around each point's `sim_result_to_json(..).to_string()`: the server
#    writes them with no `Json` tree), then shut it down cleanly. The property
#    `writer_matches_the_tree_byte_for_byte`, which pins the writer to
#    the tree over generated results, runs by name first.
# 7. Ingestion leg. The property
#    `ingest_and_selection_match_the_reference_composition` runs by name
#    first (failing if the filter matches no test): random din, ChampSim
#    and lackey bodies (CRLF, comments, banners, pids, `M` lines,
#    sub-word addresses, random warm boundaries) must ingest to the refs,
#    digest, truncation count and interval selection of a reference
#    composition written in the test (text parsers line by line,
#    `keyed::upload_digest`, a naive per-window profile), bit for bit.
#    Then, against the same smoke-test server, `cachetime-bench
#    ingest-check` chunked-uploads a din trace to `POST /v1/traces`
#    (stable content digest, dedup on re-upload), simulates and replays
#    by digest bit-identically to a direct `Simulator::run`, uploads a
#    >= 1M-ref synthetic trace whose representative-interval selection
#    must price it from <= 10 windows within the documented error bound,
#    and asserts an oversized chunk-size claim is answered 413.
# 8. Observability scrape: while the smoke-test server is still up and
#    has served real traffic, curl `/v1/metrics` and require every core
#    metric family (store, server, engine, span, disk, fleet, ingest) to
#    be present in the Prometheus text output, with no NaN samples. The
#    eviction counters of the memory store and the segment store
#    (`cachetime_store_evictions_total`, `cachetime_disk_evicted_total`)
#    are among them: both are driven by the shared `BudgetLru`. So is
#    `cachetime_record_bytes_total` beside `cachetime_record_ops_total`:
#    their ratio is what a recording costs in memory per op. The store
#    budget and the upload store's residency
#    (`cachetime_store_budget_bytes`, `cachetime_ingest_resident_bytes`)
#    are there too, since `/v1/stats` is projected from the same families.
# 9. Server chaos test: start `ctserve` with tight robustness limits and
#    run the seeded fault-injection clients (`cachetime-bench
#    serve-chaos`, fixed seed): half-written heads, mid-body disconnects,
#    torn reads, garbage. The server must stay correct under fire,
#    recover to a healthy state, and shut down cleanly with zero store
#    corruption.
# 10. Restart-warm leg: boot `ctserve --data-dir`, record a small grid,
#    SIGKILL the process, reboot on the same directory — recovery must
#    re-record nothing (store misses stay 0) and replay bit-identically
#    (serve-check against the rebooted server).
# 11. Fleet leg: boot two durable `ctserve` shards and run the
#    ring-aware `serve-check host:p1,host:p2` — deterministic rendezvous
#    routing, one recording per key fleet-wide, aggregated stats.
# 12. Fleet resilience leg: boot three `--peers` shards at replication 2,
#    record through the fleet (`cachetime-bench fleet-drill record`),
#    `kill -9` one shard and assert every key still replays warm with
#    zero re-recordings (`after-kill`), then rejoin the shard on its old
#    address with an EMPTY data directory, rebalance, and assert peer
#    handoff repopulated it with bit-identical serves (`after-rejoin`).
# 13. Serve benchmark: cold/warm/batch legs, a chunked-ingest throughput
#    leg (refs/sec), the 1..256-client concurrency sweep (p50 at 256
#    clients must stay within 3x of solo), and the cold-record vs
#    restart-warm leg. Across the 176 warm requests the process-global
#    engine counters must show no recording and no from-scratch
#    simulation, and exactly 176 replayed configurations; the restart-warm
#    leg must recover all 11 segments and record nothing (store misses 0).
#    The warm and restart-warm speedups are ratios of leg medians.
#    Refreshes BENCH_serve.json.
# 14. Associativity-threshold study at small scale: the organization
#    features (victim cache, way prediction) must reproduce the
#    crossover — a size below which set-associativity stops paying
#    against the best direct-mapped organization.
# 15. Bench regression diff: compare the freshly written BENCH_sweep.json
#    and BENCH_serve.json against the committed baselines; any headline
#    metric regressing by more than 15% (times its noise multiplier), or
#    missing from the fresh snapshot, fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> lint gate (rustfmt check; clippy with warnings denied)"
cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo build --offline --workspace (zero-dependency guard)"
cargo build --offline --workspace

# A name-filtered `cargo test` that fails when the filter matched no
# test: cargo itself passes such a run with "0 passed".
filtered_test() {
  local out
  out="$(cargo test "$@" 2>&1)" || { printf '%s\n' "$out"; return 1; }
  printf '%s\n' "$out"
  grep -Eo '[0-9]+ passed' <<<"$out" | awk '{ n += $1 } END { exit !(n > 0) }' \
    || { echo "no test matched: cargo test $*"; return 1; }
}

# Waits up to 10 s for a ctserve started in the background to write its
# port file (its presence means "listening"); fails at once if process
# PID dies first. NAME (default "ctserve") labels the failure messages.
wait_for_port_file() { # FILE PID [NAME]
  local file="$1" pid="$2" name="${3:-ctserve}"
  for _ in $(seq 1 100); do
    [ -s "$file" ] && return 0
    kill -0 "$pid" 2>/dev/null || { echo "$name died on startup"; exit 1; }
    sleep 0.1
  done
  [ -s "$file" ] || { echo "$name never wrote its port file"; exit 1; }
}

# Asks the ctserve listening on PORT to stop; the caller waits for it.
shutdown_ctserve() { # PORT
  printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
    > "/dev/tcp/127.0.0.1/$1"
}

echo "==> pricing cross-check (timing oracle; stored vs streamed pricing)"
cargo test --release -q -p cachetime --test reference_engine --test two_phase \
  --test two_phase_prop --test replay_classes_prop --test replay_lanes_prop
cargo test --release -q -p cachetime-cache --test oracle
filtered_test --release -q -p cachetime --lib op_stream
for name in generated_streams_reach_every_code sink_replay_matches_apply_bit_for_bit \
  a_stream_no_walk_writes_is_rejected checked_streams_price_without_panicking \
  an_overlong_field_decodes_to_the_same_ops; do
  filtered_test --release -q -p cachetime --lib -- "$name"
done
cargo test --release -q -p cachetime --test op_stream

echo "==> cachetime-bench sweep (small scale; writes BENCH_sweep.json)"
cargo run --release -q -p cachetime-bench -- sweep "${BENCH_SCALE:-0.05}"

echo "==> ctserve smoke test (ephemeral port; durable store; replay bit-identity)"
filtered_test -q -p cachetime-serve --lib -- writer_matches_the_tree_byte_for_byte
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE" # ctserve recreates it; its presence means "listening"
SMOKE_DATA_DIR="$(mktemp -d)"
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE" \
  --data-dir "$SMOKE_DATA_DIR" &
SERVE_PID=$!
cleanup_serve() {
  kill "$SERVE_PID" 2>/dev/null || true
  rm -f "$PORT_FILE"
  rm -rf "$SMOKE_DATA_DIR"
}
trap cleanup_serve EXIT
wait_for_port_file "$PORT_FILE" "$SERVE_PID"
SERVE_PORT="$(cat "$PORT_FILE")"
./target/release/cachetime-bench serve-check "127.0.0.1:$SERVE_PORT"

echo "==> ingestion leg (chunked POST /v1/traces; simulate-by-digest bit-identity; interval selection)"
filtered_test -q -p cachetime-serve --test ingest_reference -- \
  ingest_and_selection_match_the_reference_composition
./target/release/cachetime-bench ingest-check "127.0.0.1:$SERVE_PORT"

echo "==> /v1/metrics scrape (required families present, no NaN samples)"
METRICS="$(curl -fsS "http://127.0.0.1:$SERVE_PORT/v1/metrics")"
for family in \
  cachetime_store_hits_total \
  cachetime_store_misses_total \
  cachetime_store_entries \
  cachetime_store_bytes \
  cachetime_store_budget_bytes \
  cachetime_store_evictions_total \
  cachetime_server_in_flight \
  cachetime_server_shed_total \
  cachetime_server_timeouts_total \
  cachetime_request_duration_us \
  cachetime_record_refs_total \
  cachetime_record_ops_total \
  cachetime_record_bytes_total \
  cachetime_replay_refs_total \
  cachetime_replay_classes_total \
  cachetime_replay_lane_ops_total \
  cachetime_span_duration_us \
  cachetime_disk_spills_total \
  cachetime_disk_spill_bytes_total \
  cachetime_disk_loads_total \
  cachetime_disk_recovered_total \
  cachetime_disk_quarantined_total \
  cachetime_disk_segments \
  cachetime_disk_bytes \
  cachetime_disk_evicted_total \
  cachetime_fleet_rebalance_total \
  cachetime_fleet_segments_pulled_total \
  cachetime_fleet_segments_dropped_total \
  cachetime_fleet_transfers_rejected_total \
  cachetime_fleet_fetch_failures_total \
  cachetime_fleet_peer_fetch_us \
  cachetime_ingest_uploads_total \
  cachetime_ingest_rejected_total \
  cachetime_ingest_deduplicated_total \
  cachetime_ingest_refs_total \
  cachetime_ingest_bytes_total \
  cachetime_ingest_truncated_refs_total \
  cachetime_ingest_evicted_total \
  cachetime_ingest_resident_bytes; do
  grep -q "^$family" <<<"$METRICS" \
    || { echo "missing metric family: $family"; exit 1; }
done
if grep -qi 'nan' <<<"$METRICS"; then
  echo "NaN sample in /v1/metrics output"; exit 1
fi
echo "all required metric families present"

# Ask the server to stop and require a clean, prompt exit.
shutdown_ctserve "$SERVE_PORT"
wait "$SERVE_PID"
trap - EXIT
rm -f "$PORT_FILE"
rm -rf "$SMOKE_DATA_DIR"
echo "ctserve shut down cleanly"

echo "==> ctserve chaos test (seeded fault injection; recovery + zero corruption)"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE" \
  --max-queue 64 --max-inflight-recordings 2 --request-deadline-ms 5000 &
SERVE_PID=$!
trap cleanup_serve EXIT
wait_for_port_file "$PORT_FILE" "$SERVE_PID"
SERVE_PORT="$(cat "$PORT_FILE")"
# 3315621613 == 0xC5A05EED, the same fixed seed the chaos tests use.
./target/release/cachetime-bench serve-chaos "127.0.0.1:$SERVE_PORT" "${CHAOS_SEED:-3315621613}"
shutdown_ctserve "$SERVE_PORT"
wait "$SERVE_PID"
trap - EXIT
rm -f "$PORT_FILE"
echo "ctserve survived chaos and shut down cleanly"

echo "==> restart-warm leg (--data-dir; SIGKILL; recovery must re-record nothing)"
DATA_DIR="$(mktemp -d)"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE" --data-dir "$DATA_DIR" &
SERVE_PID=$!
cleanup_restart() {
  kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -f "$PORT_FILE"
  rm -rf "$DATA_DIR"
}
trap cleanup_restart EXIT
wait_for_port_file "$PORT_FILE" "$SERVE_PID"
SERVE_PORT="$(cat "$PORT_FILE")"
# Record a small grid of distinct pairings (each spills a segment).
for SCALE in 0.004 0.005 0.006 0.007 0.008; do
  curl -fsS -X POST "http://127.0.0.1:$SERVE_PORT/v1/simulate" \
    -d "{\"trace\": {\"name\": \"mu3\", \"scale\": $SCALE}}" >/dev/null
done
# SIGKILL: no shutdown handler runs; durability must not depend on one.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$PORT_FILE"
# Reboot on the same directory.
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE" --data-dir "$DATA_DIR" &
SERVE_PID=$!
wait_for_port_file "$PORT_FILE" "$SERVE_PID" "rebooted ctserve"
SERVE_PORT="$(cat "$PORT_FILE")"
# Re-ask the same grid: every answer must be a store hit.
for SCALE in 0.004 0.005 0.006 0.007 0.008; do
  RESP="$(curl -fsS -X POST "http://127.0.0.1:$SERVE_PORT/v1/simulate" \
    -d "{\"trace\": {\"name\": \"mu3\", \"scale\": $SCALE}}")"
  grep -q '"cached":true' <<<"$RESP" \
    || { echo "restart-warm miss at scale $SCALE: $RESP"; exit 1; }
done
STATS="$(curl -fsS "http://127.0.0.1:$SERVE_PORT/v1/stats")"
grep -q '"misses":0' <<<"$STATS" \
  || { echo "rebooted server re-recorded; stats: $STATS"; exit 1; }
grep -q '"recovered":5' <<<"$STATS" \
  || { echo "recovery did not restore all 5 segments; stats: $STATS"; exit 1; }
# Bit-identity against an in-process Simulator::run (serve-check replays
# the 0.005 pairing, which is part of the recovered grid).
./target/release/cachetime-bench serve-check "127.0.0.1:$SERVE_PORT"
shutdown_ctserve "$SERVE_PORT"
wait "$SERVE_PID"
trap - EXIT
rm -f "$PORT_FILE"
rm -rf "$DATA_DIR"
echo "restart-warm OK (5 segments recovered, zero re-recordings, bit-identical replay)"

echo "==> fleet leg (two shards; rendezvous routing + aggregated stats)"
FLEET_DIR_A="$(mktemp -d)"; FLEET_DIR_B="$(mktemp -d)"
PORT_FILE_A="$(mktemp)"; PORT_FILE_B="$(mktemp)"
rm -f "$PORT_FILE_A" "$PORT_FILE_B"
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE_A" --data-dir "$FLEET_DIR_A" &
FLEET_PID_A=$!
./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PORT_FILE_B" --data-dir "$FLEET_DIR_B" &
FLEET_PID_B=$!
cleanup_fleet() {
  kill "$FLEET_PID_A" "$FLEET_PID_B" 2>/dev/null || true
  rm -f "$PORT_FILE_A" "$PORT_FILE_B"
  rm -rf "$FLEET_DIR_A" "$FLEET_DIR_B"
}
trap cleanup_fleet EXIT
wait_for_port_file "$PORT_FILE_A" "$FLEET_PID_A" "a fleet shard"
wait_for_port_file "$PORT_FILE_B" "$FLEET_PID_B" "a fleet shard"
./target/release/cachetime-bench serve-check \
  "127.0.0.1:$(cat "$PORT_FILE_A"),127.0.0.1:$(cat "$PORT_FILE_B")"
for PORT_FILE_X in "$PORT_FILE_A" "$PORT_FILE_B"; do
  shutdown_ctserve "$(cat "$PORT_FILE_X")"
done
wait "$FLEET_PID_A" "$FLEET_PID_B"
trap - EXIT
rm -f "$PORT_FILE_A" "$PORT_FILE_B"
rm -rf "$FLEET_DIR_A" "$FLEET_DIR_B"
echo "fleet OK (deterministic routing, one recording per key fleet-wide)"

echo "==> fleet resilience leg (3 shards; replication 2; kill -9 + rejoin via peer handoff)"
# --peers needs fixed addresses (each shard's --addr appears verbatim in
# the ring), so reserve three ephemeral ports first with throwaway
# memory-only servers. SO_REUSEADDR makes the immediate rebind safe.
RES_PORTS=()
RES_PIDS=()
RES_FILES=()
for i in 0 1 2; do
  PF="$(mktemp)"; rm -f "$PF"
  ./target/release/ctserve --addr 127.0.0.1:0 --port-file "$PF" &
  RES_PIDS+=($!); RES_FILES+=("$PF")
done
for i in 0 1 2; do
  wait_for_port_file "${RES_FILES[$i]}" "${RES_PIDS[$i]}" "a port-reserving ctserve"
  RES_PORTS+=("$(cat "${RES_FILES[$i]}")")
done
for PORT in "${RES_PORTS[@]}"; do
  shutdown_ctserve "$PORT"
done
wait "${RES_PIDS[@]}"
rm -f "${RES_FILES[@]}"
PEERS="127.0.0.1:${RES_PORTS[0]},127.0.0.1:${RES_PORTS[1]},127.0.0.1:${RES_PORTS[2]}"

DRILL_DIRS=()
DRILL_PIDS=()
cleanup_drill() {
  kill -9 "${DRILL_PIDS[@]}" 2>/dev/null || true
  rm -rf "${DRILL_DIRS[@]}"
}
trap cleanup_drill EXIT
start_drill_shard() { # $1 = shard index; uses (and may recreate) its dir
  local PORT="${RES_PORTS[$1]}"
  local PF="$(mktemp)"; rm -f "$PF"
  ./target/release/ctserve --addr "127.0.0.1:$PORT" --port-file "$PF" \
    --data-dir "${DRILL_DIRS[$1]}" --peers "$PEERS" --replication 2 &
  DRILL_PIDS[$1]=$!
  wait_for_port_file "$PF" "${DRILL_PIDS[$1]}" "drill shard $1"
  rm -f "$PF"
}
for i in 0 1 2; do
  DRILL_DIRS[$i]="$(mktemp -d)"
  start_drill_shard "$i"
done
./target/release/cachetime-bench fleet-drill "$PEERS" record
# kill -9 shard 1: no shutdown handler runs, its replicas must carry it.
VICTIM=1
kill -9 "${DRILL_PIDS[$VICTIM]}"
wait "${DRILL_PIDS[$VICTIM]}" 2>/dev/null || true
./target/release/cachetime-bench fleet-drill "$PEERS" after-kill "$VICTIM"
# Rejoin on the same address with an EMPTY data directory: peer handoff
# is the only possible source of its segments.
rm -rf "${DRILL_DIRS[$VICTIM]}"
DRILL_DIRS[$VICTIM]="$(mktemp -d)"
start_drill_shard "$VICTIM"
# The boot pass already rebalances; an explicit pass serializes with it
# so the drill below never races a pull still in flight.
curl -fsS -X POST "http://127.0.0.1:${RES_PORTS[$VICTIM]}/v1/rebalance" >/dev/null
./target/release/cachetime-bench fleet-drill "$PEERS" after-rejoin "$VICTIM"
for PORT in "${RES_PORTS[@]}"; do
  shutdown_ctserve "$PORT"
done
wait "${DRILL_PIDS[@]}" 2>/dev/null || true
trap - EXIT
rm -rf "${DRILL_DIRS[@]}"
echo "fleet resilience OK (kill -9 lost no keys; rejoin repopulated by handoff)"

echo "==> cachetime-bench serve (cold/warm/batch + concurrency sweep + restart-warm; writes BENCH_serve.json)"
cargo run --release -q -p cachetime-bench -- serve "${BENCH_SCALE:-0.05}"

echo "==> fig-assoc-threshold (small scale; the crossover must exist)"
THRESHOLD_OUT="$(cargo run --release -q -p cachetime-experiments --bin repro -- \
  --scale "${BENCH_SCALE:-0.05}" fig-assoc-threshold 2>/dev/null)"
echo "$THRESHOLD_OUT" | grep '^crossover:'
echo "$THRESHOLD_OUT" | grep -q 'stops paying below ~' \
  || { echo "no associativity-threshold crossover in fig-assoc-threshold output"; exit 1; }
echo "$THRESHOLD_OUT" | grep -q '^crossover: 2-way never pays on this grid' \
  || { echo "clock-taxed 2-way unexpectedly pays; threshold study regressed"; exit 1; }

echo "==> cachetime-bench bench-diff (headline metrics vs committed baselines)"
cargo run --release -q -p cachetime-bench -- bench-diff

echo "==> verify OK"

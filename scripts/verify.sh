#!/usr/bin/env bash
# Tier-1 verification gate: everything must pass before merging.
#
#   ./scripts/verify.sh
#
# 1. Release build of the whole workspace.
# 2. Full test suite (unit + property + integration).
# 3. Offline-build guard: the workspace must build with no registry
#    access at all (zero external dependencies is a hard invariant).
# 4. Two-phase equivalence cross-check: direct simulation vs the
#    record/replay pipeline must be bit-identical per grid cell.
# 5. Small-scale `cachetime-bench sweep`: re-asserts equivalence over the
#    full speed-size grid and refreshes BENCH_sweep.json with the current
#    grid-repricing numbers.
# 6. Server smoke test: start `ctserve` on an ephemeral port, drive
#    simulate + replay + stats through `cachetime-bench serve-check`
#    (which asserts the responses are bit-identical to a direct
#    Simulator::run), then shut it down cleanly.
# 7. Ingestion leg: against the same smoke-test server, `cachetime-bench
#    ingest-check` chunked-uploads a din trace to `POST /v1/traces`
#    (stable content digest, dedup on re-upload), simulates and replays
#    by digest bit-identically to a direct `Simulator::run`, uploads a
#    >= 1M-ref synthetic trace whose representative-interval selection
#    must price it from <= 10 windows within the documented error bound,
#    and asserts an oversized chunk-size claim is answered 413.
# 8. Observability scrape: while the smoke-test server is still up and
#    has served real traffic, curl `/v1/metrics` and require every core
#    metric family (store, server, engine, span, ingest) to be present
#    in the Prometheus text output, with no NaN samples.
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
#    restart-warm leg (>= 10x). Refreshes BENCH_serve.json.
# 14. Associativity-threshold study at small scale: the organization
#    features (victim cache, way prediction) must reproduce the
#    crossover — a size below which set-associativity stops paying
#    against the best direct-mapped organization.
# 15. Bench regression diff: compare the freshly written BENCH_sweep.json
#    and BENCH_serve.json against the committed baselines; any headline
#    metric regressing by more than 15% fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo build --offline --workspace (zero-dependency guard)"
cargo build --offline --workspace

echo "==> two-phase equivalence cross-check (direct vs record/replay)"
cargo test --release -q -p cachetime --test two_phase --test two_phase_prop

echo "==> cachetime-bench sweep (small scale; writes BENCH_sweep.json)"
cargo run --release -q -p cachetime-bench -- sweep "${BENCH_SCALE:-0.05}"

echo "==> ctserve smoke test (ephemeral port; durable store; replay bit-identity)"
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
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "ctserve died on startup"; exit 1; }
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ctserve never wrote its port file"; exit 1; }
SERVE_PORT="$(cat "$PORT_FILE")"
./target/release/cachetime-bench serve-check "127.0.0.1:$SERVE_PORT"

echo "==> ingestion leg (chunked POST /v1/traces; simulate-by-digest bit-identity; interval selection)"
./target/release/cachetime-bench ingest-check "127.0.0.1:$SERVE_PORT"

echo "==> /v1/metrics scrape (required families present, no NaN samples)"
METRICS="$(curl -fsS "http://127.0.0.1:$SERVE_PORT/v1/metrics")"
for family in \
  cachetime_store_hits_total \
  cachetime_store_misses_total \
  cachetime_store_entries \
  cachetime_store_bytes \
  cachetime_server_in_flight \
  cachetime_server_shed_total \
  cachetime_server_timeouts_total \
  cachetime_request_duration_us \
  cachetime_record_refs_total \
  cachetime_replay_refs_total \
  cachetime_replay_classes_total \
  cachetime_span_duration_us \
  cachetime_disk_spills_total \
  cachetime_disk_spill_bytes_total \
  cachetime_disk_loads_total \
  cachetime_disk_recovered_total \
  cachetime_disk_quarantined_total \
  cachetime_disk_segments \
  cachetime_disk_bytes \
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
  cachetime_ingest_evicted_total; do
  grep -q "^$family" <<<"$METRICS" \
    || { echo "missing metric family: $family"; exit 1; }
done
if grep -qi 'nan' <<<"$METRICS"; then
  echo "NaN sample in /v1/metrics output"; exit 1
fi
echo "all required metric families present"

# Ask the server to stop and require a clean, prompt exit.
printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
  > "/dev/tcp/127.0.0.1/$SERVE_PORT"
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
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "ctserve died on startup"; exit 1; }
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ctserve never wrote its port file"; exit 1; }
SERVE_PORT="$(cat "$PORT_FILE")"
# 3315621613 == 0xC5A05EED, the same fixed seed the chaos tests use.
./target/release/cachetime-bench serve-chaos "127.0.0.1:$SERVE_PORT" "${CHAOS_SEED:-3315621613}"
printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
  > "/dev/tcp/127.0.0.1/$SERVE_PORT"
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
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "ctserve died on startup"; exit 1; }
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ctserve never wrote its port file"; exit 1; }
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
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "rebooted ctserve died on startup"; exit 1; }
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "rebooted ctserve never wrote its port file"; exit 1; }
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
printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
  > "/dev/tcp/127.0.0.1/$SERVE_PORT"
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
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE_A" ] && [ -s "$PORT_FILE_B" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE_A" ] && [ -s "$PORT_FILE_B" ] \
  || { echo "a fleet shard never wrote its port file"; exit 1; }
./target/release/cachetime-bench serve-check \
  "127.0.0.1:$(cat "$PORT_FILE_A"),127.0.0.1:$(cat "$PORT_FILE_B")"
for PORT_FILE_X in "$PORT_FILE_A" "$PORT_FILE_B"; do
  printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
    > "/dev/tcp/127.0.0.1/$(cat "$PORT_FILE_X")"
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
for PF in "${RES_FILES[@]}"; do
  for _ in $(seq 1 100); do
    [ -s "$PF" ] && break
    sleep 0.1
  done
  [ -s "$PF" ] || { echo "a port-reserving ctserve never came up"; exit 1; }
  RES_PORTS+=("$(cat "$PF")")
done
for PORT in "${RES_PORTS[@]}"; do
  printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
    > "/dev/tcp/127.0.0.1/$PORT"
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
  for _ in $(seq 1 100); do
    [ -s "$PF" ] && break
    kill -0 "${DRILL_PIDS[$1]}" 2>/dev/null || { echo "drill shard $1 died on startup"; exit 1; }
    sleep 0.1
  done
  [ -s "$PF" ] || { echo "drill shard $1 never wrote its port file"; exit 1; }
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
  printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
    > "/dev/tcp/127.0.0.1/$PORT"
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

#!/usr/bin/env bash
# Fleet observability, end to end (invoked from the dune runtest rule).
#
#   phase 1: two --telemetry daemons drive a distributed sweep twice
#            (fresh daemons each time, so the evaluation caches are cold
#            and every lease re-emits its decision events).  Checks:
#            - the merged frontier CSV is byte-identical to the
#              single-process run,
#            - merged-events.jsonl is byte-identical across the two runs,
#            - fleet-trace.json has a lane (process_name metadata) per
#              worker plus the supervisor, and the worker request spans
#              carry the supervisor's sweep-<pid> trace id,
#            - fleet-counters.json namespaces worker.* and sums fleet.*,
#            - hlsc explain and hlsc diff-events accept the merged file.
#   phase 2: --metrics scrape smoke plus hlsc top against a live daemon.
#   phase 3: the crash flight recorder writes hlsc-crash-<pid>.json on a
#            flow-failure exit, and --no-crash-dump suppresses it.
#
# The dune rule keeps only this script's output, so a failing check names
# itself and shows the tail of every daemon log.
set -eEu

HLSC=$1
# The dune rule hands us a build-relative path; phase 3 cd's into the
# scratch dir, so resolve it to an absolute one up front.
case "$HLSC" in /*) ;; *) HLSC=$(pwd)/$HLSC ;; esac
DIR=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT
failed() {
  echo "fleet obs: FAILED at line $1: $2"
  for f in "$DIR"/*.log; do
    [ -e "$f" ] || continue
    echo "--- tail of $(basename "$f")"
    tail -n 20 "$f"
  done
}
trap 'failed $LINENO "$BASH_COMMAND"' ERR

GRID="--design fir8 --clocks 2400:2600:100 --flows conv,slack --ii none,4"

wait_sock() {
  for _ in $(seq 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "worker socket $1 never appeared" >&2
  return 1
}

# Single-process reference frontier.
# shellcheck disable=SC2086
"$HLSC" explore $GRID --jobs 2 --csv "$DIR/ref.csv" >"$DIR/ref.out"

# ---- phase 1: merged telemetry, twice, byte-identical ----

run_fleet() {
  out=$1
  "$HLSC" serve --socket "$DIR/a.sock" --jobs 1 --telemetry \
    >"$DIR/a.log" 2>&1 &
  "$HLSC" serve --socket "$DIR/b.sock" --jobs 1 --telemetry \
    >"$DIR/b.log" 2>&1 &
  wait_sock "$DIR/a.sock"
  wait_sock "$DIR/b.sock"
  # shellcheck disable=SC2086
  "$HLSC" sweep $GRID \
    --workers "unix:$DIR/a.sock,unix:$DIR/b.sock" \
    --dir "$DIR/$out" --csv "$DIR/$out.csv" >"$DIR/$out.out" 2>&1
  "$HLSC" request --socket "$DIR/a.sock" shutdown >/dev/null 2>&1 || true
  "$HLSC" request --socket "$DIR/b.sock" shutdown >/dev/null 2>&1 || true
  wait
  rm -f "$DIR/a.sock" "$DIR/b.sock"
}

run_fleet fleet1
run_fleet fleet2

cmp "$DIR/ref.csv" "$DIR/fleet1.csv"
cmp "$DIR/fleet1/merged-events.jsonl" "$DIR/fleet2/merged-events.jsonl"
test -s "$DIR/fleet1/merged-events.jsonl"
grep -q '"worker":"L0"' "$DIR/fleet1/merged-events.jsonl"

# A lane per worker plus the supervisor, spans stamped with the trace id.
grep -q '"name":"supervisor"' "$DIR/fleet1/fleet-trace.json"
grep -q "a.sock" "$DIR/fleet1/fleet-trace.json"
grep -q "b.sock" "$DIR/fleet1/fleet-trace.json"
grep -q '"trace_id":"sweep-' "$DIR/fleet1/fleet-trace.json"
grep -q '"name":"serve.shard_explore"' "$DIR/fleet1/fleet-trace.json"

# Namespaced counters plus fleet sums.
grep -q '"fleet.serve.requests"' "$DIR/fleet1/fleet-counters.json"
grep -q '"worker.unix:' "$DIR/fleet1/fleet-counters.json"

# The merged provenance file is a first-class explain/diff input.
"$HLSC" explain --op rd_x "$DIR/fleet1/merged-events.jsonl" \
  >"$DIR/explain.out"
grep -q "worker streams" "$DIR/explain.out"
grep -q "final grade:" "$DIR/explain.out"
"$HLSC" diff-events "$DIR/fleet1/merged-events.jsonl" \
  "$DIR/fleet2/merged-events.jsonl" >"$DIR/diffev.out"
grep -q "identical:" "$DIR/diffev.out"

# ---- phase 2: metrics scrape + top dashboard ----

# --metrics 0 binds a free port; the startup line names it.
"$HLSC" serve --socket "$DIR/m.sock" --jobs 1 --telemetry --metrics 0 \
  >"$DIR/m.log" 2>&1 &
wait_sock "$DIR/m.sock"
PORT=
for _ in $(seq 100); do
  PORT=$(sed -n 's|^hlsc serve: metrics on http://127.0.0.1:\([0-9]*\)/metrics$|\1|p' "$DIR/m.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
test -n "$PORT"
"$HLSC" request --socket "$DIR/m.sock" ping >/dev/null

scrape() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || return 1
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  cat <&3
  exec 3<&-
}
scrape >"$DIR/metrics.out"
grep -q "serve_requests_total" "$DIR/metrics.out"
grep -q "serve_latency_ping" "$DIR/metrics.out"

"$HLSC" top "unix:$DIR/m.sock" --iterations 1 >"$DIR/top.out"
grep -q "cache%" "$DIR/top.out"
grep -q "m.sock" "$DIR/top.out"

"$HLSC" request --socket "$DIR/m.sock" shutdown >/dev/null 2>&1 || true
wait

# ---- phase 3: crash flight recorder ----

(cd "$DIR" && "$HLSC" run --design interpolation --clock 600 \
  >crash.out 2>crash.err) && {
  echo "infeasible run unexpectedly succeeded" >&2
  exit 1
}
dump=$(ls "$DIR"/hlsc-crash-*.json)
grep -q '"exit_code":4' "$dump"
grep -q '"open_spans"' "$dump"
grep -q '"telemetry"' "$dump"
rm -f "$DIR"/hlsc-crash-*.json

(cd "$DIR" && "$HLSC" run --design interpolation --clock 600 \
  --no-crash-dump >/dev/null 2>&1) || true
if ls "$DIR"/hlsc-crash-*.json >/dev/null 2>&1; then
  echo "--no-crash-dump still wrote a dump" >&2
  exit 1
fi

echo "fleet obs: ok"

#!/usr/bin/env bash
# Distributed-sweep chaos harness (invoked from the dune runtest rule).
#
#   phase 1: two daemons, one of which drains itself after its first
#            point — a deterministic mid-lease cut.  The sweep must
#            salvage the journaled point, reassign the tail to the
#            survivor, exit 0, and produce a CSV byte-identical to the
#            single-process run and a merged journal byte-identical to an
#            in-process sweep's.
#   phase 2: a lone self-draining daemon, so the whole worker pool is
#            lost mid-sweep.  The sweep must exit 5 (resumable) with the
#            salvaged prefix merged, and `explore --resume` must finish
#            only the lost tail (explore.resumed > 0 proves the salvaged
#            point is never re-evaluated) — byte-identical again.
set -eu

HLSC=$1
DIR=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

GRID="--design fir8 --clocks 2300:2700:200 --flows conv,slack"

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

# ---- phase 1: mid-lease drain is salvaged, reassigned, byte-identical ----

"$HLSC" serve --socket "$DIR/w1.sock" --jobs 1 --drain-after-points 1 \
  >"$DIR/w1.log" 2>&1 &
"$HLSC" serve --socket "$DIR/w2.sock" --jobs 2 >"$DIR/w2.log" 2>&1 &
wait_sock "$DIR/w1.sock"
wait_sock "$DIR/w2.sock"

# shellcheck disable=SC2086
"$HLSC" sweep $GRID \
  --workers "unix:$DIR/w1.sock,unix:$DIR/w2.sock" \
  --lease-points 3 --heartbeat 0.3 \
  --dir "$DIR/out1" --csv "$DIR/dist.csv" --stats \
  >"$DIR/sweep1.out" 2>"$DIR/sweep1.stats"

cmp "$DIR/ref.csv" "$DIR/dist.csv"
# shellcheck disable=SC2086
"$HLSC" sweep $GRID --dir "$DIR/local1" >"$DIR/local1.out"
cmp "$DIR/local1/merged.jnl" "$DIR/out1/merged.jnl"
# The stats report only prints non-zero counters, so presence asserts >= 1.
grep -q "dispatch.reassigned" "$DIR/sweep1.stats"
grep -q "dispatch.salvaged_points" "$DIR/sweep1.stats"

# ---- phase 2: total worker loss -> exit 5 -> resume finishes the tail ----

"$HLSC" serve --socket "$DIR/w3.sock" --jobs 1 --drain-after-points 1 \
  >"$DIR/w3.log" 2>&1 &
wait_sock "$DIR/w3.sock"

set +e
# shellcheck disable=SC2086
"$HLSC" sweep $GRID \
  --workers "unix:$DIR/w3.sock" --lease-points 3 \
  --dir "$DIR/out2" --csv "$DIR/dist2.csv" \
  >"$DIR/sweep2.out" 2>&1
code=$?
set -e
if [ "$code" -ne 5 ]; then
  echo "expected exit 5 on total worker loss, got $code" >&2
  cat "$DIR/sweep2.out" >&2
  exit 1
fi
grep -q "resume" "$DIR/sweep2.out"

# shellcheck disable=SC2086
"$HLSC" explore $GRID --resume "$DIR/out2/merged.jnl" \
  --csv "$DIR/res.csv" --stats >"$DIR/resume.out" 2>"$DIR/resume.stats"
cmp "$DIR/ref.csv" "$DIR/res.csv"
grep -q "explore.resumed" "$DIR/resume.stats"

echo "dispatch chaos: ok"

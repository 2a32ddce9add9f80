#!/bin/sh
# Serving-path smoke test: boot portald on an ephemeral port over a tiny
# synthetic crawl, drive a short open-loop burst through loadgen asserting
# every response is 2xx or a 429 shed, then SIGTERM the server and require
# a clean graceful exit (readiness flip + drain + exit 0).
#
# Second leg: durability. Start a tiered (-data-dir) crawl with WAL sync
# on, kill -9 the process mid-crawl once some documents are acknowledged
# durable, restart over the same data directory, and require that every
# acknowledged document survived the crash.
#
# Third leg: the saved-crawl walkthrough. bingo crawls into a data
# directory and saves its session there, bingo -resume reopens it with
# every stored document, and portald serves it.
#
# Run via `make smoke`; CI runs it on every push.
set -eu

tmp="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "smoke: building portald + loadgen"
go build -o "$tmp/portald" ./cmd/portald
go build -o "$tmp/loadgen" ./cmd/loadgen

echo "smoke: starting portald (tiny world crawl, ephemeral port)"
"$tmp/portald" -crawl -world tiny -listen 127.0.0.1:0 -port-file "$tmp/port" \
    >"$tmp/portald.log" 2>&1 &
pid=$!

# The port file appears only after the crawl finishes and the listener is
# bound with readiness announced; the tiny world takes seconds, budget more.
i=0
while [ ! -s "$tmp/port" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: portald exited before serving; log follows" >&2
        cat "$tmp/portald.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 1200 ]; then
        echo "smoke: timed out waiting for portald to serve" >&2
        cat "$tmp/portald.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$tmp/port")"
echo "smoke: portald serving on $addr"

echo "smoke: checking readiness"
curl -fsS "http://$addr/readyz"

# The ops surface every daemon shares (smoke_dist.sh asserts the same on
# the coordinator and a shard server).
echo "smoke: checking /tracez and the profiler"
for path in /tracez /debug/pprof/cmdline "/debug/pprof/profile?seconds=1"; do
    if ! curl -fsS -o /dev/null "http://$addr$path"; then
        echo "smoke: $path did not answer 200; log follows" >&2
        cat "$tmp/portald.log" >&2
        exit 1
    fi
done

echo "smoke: 2s open-loop burst on /search (zero non-2xx/non-429 required)"
"$tmp/loadgen" -target "http://$addr" -rate 200 -duration 2s -fail-on-errors

echo "smoke: SIGTERM, expecting graceful drain and exit 0"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "smoke: portald exited $rc on SIGTERM (graceful shutdown broken); log follows" >&2
    cat "$tmp/portald.log" >&2
    exit 1
fi
if ! grep -q "shutdown complete" "$tmp/portald.log"; then
    echo "smoke: portald never logged 'shutdown complete'; log follows" >&2
    cat "$tmp/portald.log" >&2
    exit 1
fi

# --- Durability leg: SIGKILL a tiered crawl, recover from segments + WAL ---

echo "smoke: starting tiered crawl (-data-dir, WAL sync on)"
datadir="$tmp/data"
"$tmp/portald" -crawl -world tiny -data-dir "$datadir" -wal-sync \
    -listen 127.0.0.1:0 -port-file "$tmp/port2" \
    >"$tmp/tiered.log" 2>&1 &
pid=$!

# Wait until the crawl has acknowledged at least a few documents as
# durable (fsynced WAL), then pull the plug with SIGKILL — no drain, no
# manifest commit, the worst crash the recovery path must handle.
min_durable=5
i=0
durable=0
while :; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: tiered portald exited before reaching $min_durable durable docs; log follows" >&2
        cat "$tmp/tiered.log" >&2
        exit 1
    fi
    durable="$(sed -n 's/^crawl progress: \([0-9][0-9]*\) docs durable$/\1/p' "$tmp/tiered.log" | tail -1)"
    if [ -n "$durable" ] && [ "$durable" -ge "$min_durable" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 1200 ]; then
        echo "smoke: timed out waiting for durable crawl progress; log follows" >&2
        cat "$tmp/tiered.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "smoke: $durable docs durable, sending SIGKILL mid-crawl"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "smoke: restarting over the crashed data directory"
"$tmp/portald" -data-dir "$datadir" -listen 127.0.0.1:0 -port-file "$tmp/port3" \
    >"$tmp/recover.log" 2>&1 &
pid=$!
i=0
while [ ! -s "$tmp/port3" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: recovery portald exited before serving; log follows" >&2
        cat "$tmp/recover.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "smoke: timed out waiting for recovery portald" >&2
        cat "$tmp/recover.log" >&2
        exit 1
    fi
    sleep 0.1
done
recovered="$(sed -n 's/^serving portal over \([0-9][0-9]*\) documents.*/\1/p' "$tmp/recover.log" | tail -1)"
if [ -z "$recovered" ] || [ "$recovered" -lt "$durable" ]; then
    echo "smoke: WAL replay lost acknowledged documents: $durable were durable, recovered ${recovered:-0}; logs follow" >&2
    cat "$tmp/recover.log" >&2
    exit 1
fi
echo "smoke: recovered $recovered docs (>= $durable acknowledged durable before SIGKILL)"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "smoke: recovery portald exited $rc on SIGTERM; log follows" >&2
    cat "$tmp/recover.log" >&2
    exit 1
fi

# --- Saved-crawl leg: bingo writes a session, bingo -resume continues it,
# portald serves its data directory ---

die() {
    echo "smoke: $1; log follows" >&2
    cat "$2" >&2
    exit 1
}

echo "smoke: building bingo"
go build -o "$tmp/bingo" ./cmd/bingo
crawl="$tmp/crawl"

echo "smoke: saved crawl (bingo -world tiny -data-dir)"
"$tmp/bingo" -world tiny -learn 60 -harvest 120 -data-dir "$crawl" >"$tmp/bingo.log" 2>&1 ||
    die "bingo crawl failed" "$tmp/bingo.log"
stored="$(sed -n 's/^session saved in .* (\([0-9][0-9]*\) documents).*/\1/p' "$tmp/bingo.log")"
[ -n "$stored" ] && [ "$stored" -gt 0 ] || die "bingo saved no session" "$tmp/bingo.log"

echo "smoke: resuming the session"
"$tmp/bingo" -world tiny -data-dir "$crawl" -resume -harvest 60 >"$tmp/resume.log" 2>&1 ||
    die "bingo -resume failed" "$tmp/resume.log"
grep -q "^resumed session: $stored documents" "$tmp/resume.log" ||
    die "resume did not reopen the $stored saved documents" "$tmp/resume.log"

echo "smoke: portald over the resumed crawl"
"$tmp/portald" -data-dir "$crawl" -listen 127.0.0.1:0 -port-file "$tmp/port4" \
    >"$tmp/serve.log" 2>&1 &
pid=$!
i=0
while [ ! -s "$tmp/port4" ]; do
    kill -0 "$pid" 2>/dev/null || die "portald exited before serving" "$tmp/serve.log"
    i=$((i + 1))
    [ "$i" -le 600 ] || die "timed out waiting for portald" "$tmp/serve.log"
    sleep 0.1
done
resp="$(curl -fsS "http://$(cat "$tmp/port4")/search?q=database")" ||
    die "/search did not answer 200" "$tmp/serve.log"
echo "$resp" | grep -q '"url"' || die "/search returned no hits: $resp" "$tmp/serve.log"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || die "portald exited $rc on SIGTERM" "$tmp/serve.log"
echo "smoke: saved crawl of $stored docs resumed and served"
echo "smoke: OK"

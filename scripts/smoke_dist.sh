#!/bin/sh
# Distributed smoke test — the chaos proof of the scatter-gather split:
#
#  1. Boot two shardd servers (each with its own tiered -data-dir + WAL)
#     and a portald coordinator that crawls a tiny world, mirroring every
#     stored document into the shard servers through the ingest router.
#  2. Once shard 2 has acknowledged a few documents durable, kill -9 it
#     mid-crawl. The crawl must complete anyway (ingest degrades, never
#     stalls) and the coordinator must serve.
#  3. Drive a loadgen burst: every /search answer must be 2xx or a 429
#     shed — a dead shard degrades results, it must never cause a 5xx
#     storm — and the coordinator's /metricsz must show the front door's
#     request count and admission gate moving. A direct /search must
#     report "degraded":true and name the dead shard in missing_shards.
#  4. Restart shard 2 over the same data directory: the WAL must recover
#     at least every acknowledged document, the coordinator's prober must
#     fold it back in, and /search must return to "degraded":false.
#  5. SIGTERM everything and require clean drains (exit 0).
#
# Run via `make smoke-dist`; CI runs it on every push.
set -eu

tmp="$(mktemp -d)"
s1_pid=""
s2_pid=""
coord_pid=""
cleanup() {
    for p in "$s1_pid" "$s2_pid" "$coord_pid"; do
        if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
            kill -9 "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke-dist: $1; logs follow" >&2
    for f in "$tmp"/shard1.log "$tmp"/shard2.log "$tmp"/shard2b.log "$tmp"/coord.log; do
        [ -f "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
    done
    exit 1
}

# wait_port <file> <pid> <what>
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        kill -0 "$2" 2>/dev/null || fail "$3 exited before serving"
        i=$((i + 1))
        [ "$i" -gt 1200 ] && fail "timed out waiting for $3"
        sleep 0.1
    done
}

echo "smoke-dist: building shardd + portald + loadgen"
go build -o "$tmp/shardd" ./cmd/shardd
go build -o "$tmp/portald" ./cmd/portald
go build -o "$tmp/loadgen" ./cmd/loadgen

echo "smoke-dist: starting two shard servers (tiered stores, WAL sync on)"
"$tmp/shardd" -listen 127.0.0.1:0 -port-file "$tmp/s1.port" -data-dir "$tmp/shard1" \
    >"$tmp/shard1.log" 2>&1 &
s1_pid=$!
"$tmp/shardd" -listen 127.0.0.1:0 -port-file "$tmp/s2.port" -data-dir "$tmp/shard2" \
    >"$tmp/shard2.log" 2>&1 &
s2_pid=$!
wait_port "$tmp/s1.port" "$s1_pid" "shard 1"
wait_port "$tmp/s2.port" "$s2_pid" "shard 2"
s1="http://$(cat "$tmp/s1.port")"
s2="http://$(cat "$tmp/s2.port")"
echo "smoke-dist: shard servers on $s1 and $s2"

echo "smoke-dist: starting coordinator with a tiny-world crawl mirrored into the fleet"
"$tmp/portald" -shards "$s1,$s2" -crawl -world tiny \
    -listen 127.0.0.1:0 -port-file "$tmp/coord.port" \
    >"$tmp/coord.log" 2>&1 &
coord_pid=$!

# Wait until shard 2 has acknowledged a few documents durable (fsynced
# far-side WAL), then pull its plug with SIGKILL — no drain, no warning,
# mid-crawl. The ingest router must keep the crawl going.
min_durable=5
i=0
acked=0
while :; do
    kill -0 "$coord_pid" 2>/dev/null || fail "coordinator exited before shard 2 acked $min_durable durable docs"
    acked="$(sed -n "s|^ingest progress: shard $s2: [0-9]* docs acked (\([0-9]*\) durable)\$|\1|p" "$tmp/coord.log" | tail -1)"
    if [ -n "$acked" ] && [ "$acked" -ge "$min_durable" ]; then
        break
    fi
    i=$((i + 1))
    [ "$i" -gt 1200 ] && fail "timed out waiting for shard 2 ingest progress"
    sleep 0.1
done
echo "smoke-dist: shard 2 acked $acked docs durable, sending SIGKILL mid-crawl"
kill -9 "$s2_pid"
wait "$s2_pid" 2>/dev/null || true
s2_pid=""

wait_port "$tmp/coord.port" "$coord_pid" "coordinator"
coord="http://$(cat "$tmp/coord.port")"
echo "smoke-dist: coordinator serving on $coord despite the dead shard"

# The ops surface every daemon shares (smoke.sh asserts the same on portald).
echo "smoke-dist: checking /tracez and the profiler on the coordinator and shard 1"
for base in "$coord" "$s1"; do
    for path in /tracez /debug/pprof/cmdline "/debug/pprof/profile?seconds=1"; do
        curl -fsS -o /dev/null "$base$path" || fail "$base$path did not answer 200"
    done
done

echo "smoke-dist: 2s open-loop burst on /search (zero non-2xx/non-429 required)"
"$tmp/loadgen" -target "$coord" -rate 100 -duration 2s -fail-on-errors

# The coordinator answers /search through the same front door as a single
# portald: its request accounting and admission gate must have seen the burst.
echo "smoke-dist: checking the coordinator's front door counted and admitted the burst"
metricsz="$(curl -fsS "$coord/metricsz")"
for series in serve_search_requests_total admit_admitted_total; do
    n="$(printf '%s\n' "$metricsz" | sed -n "s/^$series \([0-9]*\)\$/\1/p")"
    [ -n "$n" ] && [ "$n" -gt 0 ] || fail "coordinator /metricsz: $series is ${n:-absent}, want > 0"
done

echo "smoke-dist: checking the answer is degraded and names the dead shard"
resp="$(curl -fsS "$coord/search?q=database")"
echo "$resp" | grep -q '"degraded":true' || fail "dead shard not reported: $resp"
echo "$resp" | grep -q "$s2" || fail "missing_shards does not name $s2: $resp"

echo "smoke-dist: restarting shard 2 over its crashed data directory"
"$tmp/shardd" -listen 127.0.0.1:0 -port-file "$tmp/s2b.port" -data-dir "$tmp/shard2" \
    >"$tmp/shard2b.log" 2>&1 &
s2_pid=$!
wait_port "$tmp/s2b.port" "$s2_pid" "restarted shard 2"
recovered="$(sed -n 's/^shard server over \([0-9]*\) documents.*/\1/p' "$tmp/shard2b.log" | tail -1)"
if [ -z "$recovered" ] || [ "$recovered" -lt "$acked" ]; then
    fail "WAL replay lost acknowledged documents: $acked acked durable, recovered ${recovered:-0}"
fi
echo "smoke-dist: shard 2 recovered $recovered docs (>= $acked acked before SIGKILL)"

# The restarted server listens on a NEW port; the coordinator still
# addresses the old one, so reintegration can't happen across the port
# change... except shardd rebinding the same port is not guaranteed here.
# Instead assert reintegration the way operators do after a rolling
# restart on stable addresses: restart shard 2 again bound to its
# original address, then poll /search until degraded clears.
kill -TERM "$s2_pid"
wait "$s2_pid" 2>/dev/null || true
orig_addr="$(cat "$tmp/s2.port")"
"$tmp/shardd" -listen "$orig_addr" -port-file "$tmp/s2c.port" -data-dir "$tmp/shard2" \
    >"$tmp/shard2c.log" 2>&1 &
s2_pid=$!
wait_port "$tmp/s2c.port" "$s2_pid" "reintegrated shard 2"

echo "smoke-dist: waiting for the prober to fold shard 2 back in"
i=0
while :; do
    resp="$(curl -fsS "$coord/search?q=database" || true)"
    if echo "$resp" | grep -q '"degraded":false'; then
        break
    fi
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "coordinator never cleared degraded after shard 2 returned: $resp"
    sleep 0.1
done
echo "smoke-dist: fleet healthy again, answers no longer degraded"

echo "smoke-dist: SIGTERM everything, expecting clean drains"
for pair in "coord_pid:coord.log" "s1_pid:shard1.log" "s2_pid:shard2c.log"; do
    var="${pair%%:*}"
    logf="$tmp/${pair#*:}"
    eval "p=\$$var"
    kill -TERM "$p"
    rc=0
    wait "$p" || rc=$?
    eval "$var=''"
    [ "$rc" -ne 0 ] && fail "$var exited $rc on SIGTERM (graceful shutdown broken)"
    grep -q "shutdown complete" "$logf" || fail "$logf never logged 'shutdown complete'"
done
echo "smoke-dist: OK"

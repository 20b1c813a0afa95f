#!/usr/bin/env sh
# smoke_asymd.sh — build asymd and smoke two topologies:
#
#  1. single node: start on an ephemeral port, hit /v1/healthz, submit a
#     tiny burst-sweep, poll to done, assert a 64-hex fingerprint in a
#     one-line result sent with Content-Length, a 304 for a conditional
#     re-fetch, a warm-cache resubmit, and a renamed raw copy of the sweep
#     answered "done" in its 202 reply from the cell cache;
#  2. two nodes: start a worker and a coordinator peered to it
#     (-peers, -shard 1), submit a raw multi-cell spec, assert the worker
#     simulated shards, fetch a per-cell sim-time trace from the
#     coordinator (counter + task events, despite the cell having run
#     remotely), then resubmit the spec plus one extra sweep point and
#     assert the delta job reports cell-cache hits;
#  3. chaos: coordinator + two workers, SIGKILL one worker mid-sweep,
#     assert the job still completes with the exact fingerprint an
#     undisturbed single-node run produces, the dead peer is reported
#     down by /v1/healthz, and the fleet's cell_runs cover the grid.
#
# Observability rides each leg: /metrics is scraped before and after the
# single-node sweep (asymd_cell_runs_total must advance), the job's
# Perfetto trace is fetched from /v1/jobs/{id}/trace, pprof must 404
# without -pprof and serve with it, and after the chaos kill the
# coordinator's breaker gauge must read 2 (down) for the dead peer.
#
# Used by CI (asymd-smoke job) and runnable locally.
set -eu

cd "$(dirname "$0")/.."

BIN="${TMPDIR:-/tmp}/asymd-smoke"
LOG="$(mktemp)"
WLOG="$(mktemp)"
CLOG="$(mktemp)"
W1LOG="$(mktemp)"
W2LOG="$(mktemp)"
C2LOG="$(mktemp)"
PLOG="$(mktemp)"
trap 'kill "$PID" "$WPID" "$CPID" "$W1PID" "$W2PID" "$C2PID" "$PFPID" 2>/dev/null || true; rm -f "$LOG" "$WLOG" "$CLOG" "$W1LOG" "$W2LOG" "$C2LOG" "$PLOG"' EXIT
PID=""; WPID=""; CPID=""; W1PID=""; W2PID=""; C2PID=""; PFPID=""

go build -o "$BIN" ./cmd/asymd

# Non-positive cache capacities must be rejected loudly, not silently
# coerced to the defaults.
for BADFLAG in "-cache 0" "-cellcache 0" "-shard -1" "-trace-retention 0"; do
	if "$BIN" $BADFLAG -addr 127.0.0.1:0 >/dev/null 2>&1; then
		echo "asymd accepted '$BADFLAG', want a startup error"; exit 1
	fi
done
echo "bad-flag rejection OK"

# wait_addr <logfile> <pidvarvalue>: print the bound address once logged.
wait_addr() {
	_addr=""
	for _ in $(seq 1 50); do
		_addr="$(sed -n 's/.*asymd listening.*addr=\([0-9.:]*\).*/\1/p' "$1" | head -n 1)"
		[ -n "$_addr" ] && break
		kill -0 "$2" 2>/dev/null || { echo "asymd died:" >&2; cat "$1" >&2; return 1; }
		sleep 0.2
	done
	[ -n "$_addr" ] || { echo "asymd never logged its address:" >&2; cat "$1" >&2; return 1; }
	printf '%s' "$_addr"
}

"$BIN" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!
ADDR="$(wait_addr "$LOG" "$PID")"
BASE="http://$ADDR"
echo "asymd up at $BASE"

curl -fsS "$BASE/v1/healthz" | grep -q '"ok": *true' || { echo "healthz failed"; exit 1; }

# Scrape the registry before the sweep; the counter starts at zero.
CR0="$(curl -fsS "$BASE/metrics" | sed -n 's/^asymd_cell_runs_total \([0-9]*\)$/\1/p')"
[ -n "$CR0" ] || { echo "asymd_cell_runs_total missing from /metrics"; exit 1; }

SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d '{"family": "burst-sweep", "scale": 0.01}' "$BASE/v1/jobs")"
JOB="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "no job id in: $SUBMIT"; exit 1; }
echo "submitted job $JOB"

STATE=""
for _ in $(seq 1 150); do
	STATUS="$(curl -fsS "$BASE/v1/jobs/$JOB")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "job stuck in state '$STATE'"; exit 1; }

RESULT="$(curl -fsS "$BASE/v1/results/$JOB")"
printf '%s' "$RESULT" | grep -Eq '"fingerprint": *"[0-9a-f]{64}"' \
	|| { echo "no 64-hex fingerprint in: $RESULT"; exit 1; }
# The digest spelled out, for when two of them differ.
case "$(curl -fsS "$BASE/v1/results/$JOB/fingerprint")" in
scenario=*) ;;
*) echo "GET /v1/results/$JOB/fingerprint does not start 'scenario='"; exit 1 ;;
esac

# A result is one compact line sent with its length, under a strong ETag:
# a conditional re-fetch answers 304 and no body.
[ "$(printf '%s' "$RESULT" | wc -l)" -eq 0 ] \
	|| { echo "result body is not one line"; exit 1; }
RHEAD="$(curl -fsS -D - -o /dev/null "$BASE/v1/results/$JOB" | tr -d '\r')"
printf '%s\n' "$RHEAD" | grep -qi '^content-length: [0-9][0-9]*$' \
	|| { echo "result reply carries no Content-Length: $RHEAD"; exit 1; }
ETAG="$(printf '%s\n' "$RHEAD" | sed -n 's/^[Ee][Tt][Aa][Gg]: *//p')"
[ -n "$ETAG" ] || { echo "result reply carries no ETag: $RHEAD"; exit 1; }
COND="$(curl -sS -o /dev/null -w '%{http_code} %{size_download}' \
	-H "If-None-Match: $ETAG" "$BASE/v1/results/$JOB")"
[ "$COND" = "304 0" ] || { echo "conditional result GET answered '$COND', want '304 0'"; exit 1; }

# Resubmit: the cache must answer with the finished job (HTTP 200, done).
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
	-d '{"family": "burst-sweep", "scale": 0.01}' "$BASE/v1/jobs")"
[ "$CODE" = "200" ] || { echo "cached resubmit returned $CODE, want 200"; exit 1; }

# The sweep's spec under a new name is a new job (HTTP 202) whose every cell
# is cached, so the submit reply itself is "done" — no poll. SPEC_R is the
# canonical burst-sweep spec at scale 0.01 with only its name changed. The
# fingerprint hashes the name; the metrics behind it — its text past the
# `scenario=<name>` line — must be the first job's.
SPEC_R='{"name":"smoke-renamed","platform":{"preset":"tx2"},"workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tile":64,"sweeps":1,"tasks":600,"parallelism":4}},"disturb":[{"kind":"burst","cluster":1,"share":0.4,"busy_dur":0.015,"idle_dur":0.03,"phase_step":0.01},{"kind":"burst","cores":[1],"share":0.5,"busy_dur":0.02,"idle_dur":0.04}],"policies":["RWS","RWSM-C","FA","FAM-C","DA","DAM-C","DAM-P"],"points":[{"label":"P2","parallelism":2},{"label":"P4","parallelism":4},{"label":"P6","parallelism":6}],"seed":42,"reps":1,"latency":0.000002,"bandwidth":5000000000}'
REPLY="$(curl -sS -w '\n%{http_code}' -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_R}" "$BASE/v1/jobs")"
CODE="$(printf '%s\n' "$REPLY" | tail -n 1)"
REPLY="$(printf '%s\n' "$REPLY" | head -n 1)"
[ "$CODE" = "202" ] || { echo "renamed resubmit returned $CODE, want 202: $REPLY"; exit 1; }
STATE="$(printf '%s' "$REPLY" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
TOTAL="$(printf '%s' "$REPLY" | sed -n 's/.*"cells_total": *\([0-9]*\).*/\1/p')"
HITS="$(printf '%s' "$REPLY" | sed -n 's/.*"cell_hits": *\([0-9]*\).*/\1/p')"
[ "$STATE" = "done" ] && [ -n "$TOTAL" ] && [ "$TOTAL" -gt 0 ] && [ "$HITS" = "$TOTAL" ] \
	|| { echo "renamed resubmit reply is not done with every cell a hit: $REPLY"; exit 1; }
JOBR="$(printf '%s' "$REPLY" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOBR" ] && [ "$JOBR" != "$JOB" ] || { echo "renamed resubmit did not make a new job: $REPLY"; exit 1; }
[ "$(curl -fsS "$BASE/v1/results/$JOBR/fingerprint" | tail -n +2)" = "$(curl -fsS "$BASE/v1/results/$JOB/fingerprint" | tail -n +2)" ] \
	|| { echo "renamed job's metrics differ from the first job's"; exit 1; }
DAS="$(curl -fsS "$BASE/metrics" | sed -n 's/^asymd_jobs_done_at_submit_total \([0-9]*\)$/\1/p')"
[ "$DAS" = "1" ] || { echo "asymd_jobs_done_at_submit_total = '$DAS', want 1"; exit 1; }
echo "renamed resubmit done in its submit reply ($HITS/$TOTAL cells cached)"

# The job listing must include the finished job.
curl -fsS "$BASE/v1/jobs" | grep -q "\"id\": *\"$JOB\"" \
	|| { echo "job $JOB missing from GET /v1/jobs"; exit 1; }

echo "single-node smoke OK"

# --- observability: /metrics, the job trace, and the pprof gate -----------

# The sweep must have advanced the cell-run counter and the done counter.
CR1="$(curl -fsS "$BASE/metrics" | sed -n 's/^asymd_cell_runs_total \([0-9]*\)$/\1/p')"
[ -n "$CR1" ] && [ "$CR1" -gt "$CR0" ] \
	|| { echo "asymd_cell_runs_total went $CR0 -> $CR1 over a sweep, want an increase"; exit 1; }
curl -fsS "$BASE/metrics" | grep -q '^asymd_jobs_done_total [1-9]' \
	|| { echo "asymd_jobs_done_total did not advance"; exit 1; }
echo "metrics OK: cell_runs $CR0 -> $CR1"

# The finished job advertises its trace; the export is a Chrome trace
# with named lanes and simulate slices (load it in ui.perfetto.dev).
TRACE_URL="$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/.*"trace_url": *"\([^"]*\)".*/\1/p')"
[ -n "$TRACE_URL" ] || { echo "finished job advertises no trace_url"; exit 1; }
TRACE="$(curl -fsS "$BASE$TRACE_URL")"
printf '%s' "$TRACE" | grep -q '"thread_name"' \
	|| { echo "trace has no lane metadata: $TRACE"; exit 1; }
printf '%s' "$TRACE" | grep -q '"cat":"simulate"' \
	|| { echo "trace has no simulate slices: $TRACE"; exit 1; }
echo "trace OK: $TRACE_URL"

# pprof is opt-in: 404 on the default node, served with -pprof.
CODE="$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")"
[ "$CODE" = "404" ] || { echo "pprof served without -pprof (status $CODE)"; exit 1; }
"$BIN" -addr 127.0.0.1:0 -pprof >"$PLOG" 2>&1 &
PFPID=$!
PADDR="$(wait_addr "$PLOG" "$PFPID")"
CODE="$(curl -sS -o /dev/null -w '%{http_code}' "http://$PADDR/debug/pprof/")"
[ "$CODE" = "200" ] || { echo "pprof index returned $CODE with -pprof, want 200"; exit 1; }
kill "$PFPID" 2>/dev/null || true
PFPID=""
echo "pprof gate OK"

# --- batched same-graph sweep: cell_runs must reflect exact cell counts ---

# A rep-only daggen sweep runs 3 cells of one compiled graph. The local
# backend batches them onto shared workload state; cell_runs must advance
# by exactly the 3 simulated cells — no repeats, no hidden extra builds.
R0="$(curl -fsS "$BASE/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
SPEC_G='{"name":"smoke-batch","workload":{"kind":"daggen","daggen":{"model":"cholesky","tiles":4}},"policies":["DAM-C"],"reps":3,"seed":11}'
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_G}" "$BASE/v1/jobs")"
JOBG="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOBG" ] || { echo "no job id in: $SUBMIT"; exit 1; }

STATE=""
for _ in $(seq 1 150); do
	STATUS="$(curl -fsS "$BASE/v1/jobs/$JOBG")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "batch job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "batch job stuck in state '$STATE'"; exit 1; }

R1="$(curl -fsS "$BASE/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
DELTA=$((R1 - R0))
[ "$DELTA" = "3" ] || { echo "same-graph sweep advanced cell_runs by $DELTA, want 3"; exit 1; }
echo "batched same-graph sweep simulated exactly $DELTA cells"

# --- two-node peer topology: coordinator + one worker ---------------------

"$BIN" -addr 127.0.0.1:0 >"$WLOG" 2>&1 &
WPID=$!
WADDR="$(wait_addr "$WLOG" "$WPID")"
echo "worker up at http://$WADDR"

# -shard 1 puts every cell in its own shard; round-robin then guarantees
# the worker peer receives shards for any multi-cell job.
"$BIN" -addr 127.0.0.1:0 -peers "http://$WADDR" -shard 1 >"$CLOG" 2>&1 &
CPID=$!
CADDR="$(wait_addr "$CLOG" "$CPID")"
COORD="http://$CADDR"
echo "coordinator up at $COORD (peered to worker)"

SPEC_A='{"name":"smoke-shard","workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":600}},"policies":["RWS","DAM-C"],"points":[{"label":"P2","parallelism":2},{"label":"P4","parallelism":4}],"seed":7}'
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_A}" "$COORD/v1/jobs")"
JOB2="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOB2" ] || { echo "no job id in: $SUBMIT"; exit 1; }

STATE=""
for _ in $(seq 1 150); do
	STATUS="$(curl -fsS "$COORD/v1/jobs/$JOB2")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "sharded job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "sharded job stuck in state '$STATE'"; exit 1; }

# The worker must have simulated some of the shards.
WRUNS="$(curl -fsS "http://$WADDR/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
[ -n "$WRUNS" ] && [ "$WRUNS" -ge 1 ] || { echo "worker simulated $WRUNS cells, want >= 1"; exit 1; }
echo "worker simulated $WRUNS cells"

# Per-cell sim-time traces work for sharded jobs: the coordinator renders
# any cell's schedule by deterministic re-execution, even though the cell
# itself was simulated on the worker. The trace must carry both task
# slices ("X") and the probe's counter lanes ("C").
SIMTRACE="$(curl -fsS "$COORD/v1/jobs/$JOB2/cells/0/simtrace")"
printf '%s' "$SIMTRACE" | grep -q '"ph":"X"' \
	|| { echo "simtrace has no task slices"; exit 1; }
printf '%s' "$SIMTRACE" | grep -q '"ph":"C"' \
	|| { echo "simtrace has no counter events"; exit 1; }
printf '%s' "$SIMTRACE" | grep -q '"name":"queue depth"' \
	|| { echo "simtrace has no queue-depth lane"; exit 1; }
CODE="$(curl -sS -o /dev/null -w '%{http_code}' "$COORD/v1/jobs/$JOB2/cells/9999/simtrace")"
[ "$CODE" = "400" ] || { echo "out-of-grid simtrace cell returned $CODE, want 400"; exit 1; }
echo "simtrace OK: sharded cell 0 renders task + counter events"

# Resubmit the spec plus one extra sweep point: a NEW job (different spec
# hash) that must assemble the old cells from the coordinator's cell cache
# and simulate only the delta.
SPEC_B='{"name":"smoke-shard","workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":600}},"policies":["RWS","DAM-C"],"points":[{"label":"P2","parallelism":2},{"label":"P4","parallelism":4},{"label":"P6","parallelism":6}],"seed":7}'
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_B}" "$COORD/v1/jobs")"
JOB3="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOB3" ] || { echo "no job id in: $SUBMIT"; exit 1; }
[ "$JOB3" != "$JOB2" ] || { echo "extended spec hashed to the same job"; exit 1; }

STATE=""
for _ in $(seq 1 150); do
	STATUS="$(curl -fsS "$COORD/v1/jobs/$JOB3")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "delta job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "delta job stuck in state '$STATE'"; exit 1; }

# 4 of the 6 cells (2 policies x 3 points) overlap spec A and must be
# cell-cache hits; only the 2 new P6 cells may miss.
HITS="$(printf '%s' "$STATUS" | sed -n 's/.*"cell_hits": *\([0-9]*\).*/\1/p')"
MISSES="$(printf '%s' "$STATUS" | sed -n 's/.*"cell_misses": *\([0-9]*\).*/\1/p')"
[ "$HITS" = "4" ] || { echo "delta job had $HITS cell hits, want 4: $STATUS"; exit 1; }
[ "$MISSES" = "2" ] || { echo "delta job had $MISSES cell misses, want 2: $STATUS"; exit 1; }
echo "delta job reused $HITS cells, simulated $MISSES"

# --- chaos: kill a worker mid-sweep; the job must survive it --------------

# 2 policies x 3 points x 6 reps = 36 cells, sized so the kill reliably
# lands while shards are in flight (18 cells of 2 000 tasks stopped being
# enough once cells and shard replies got cheaper: the doomed worker then
# often finished its third of the grid before the kill).
SPEC_C='{"name":"smoke-chaos","workload":{"kind":"synthetic","synthetic":{"kernel":"MatMul","tasks":8000}},"policies":["RWS","DAM-C"],"points":[{"label":"P2","parallelism":2},{"label":"P4","parallelism":4},{"label":"P6","parallelism":6}],"reps":6,"seed":9}'
CELLS_C=36

# Ground truth: the undisturbed fingerprint, from the single node.
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_C}" "$BASE/v1/jobs")"
JOBREF="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOBREF" ] || { echo "no job id in: $SUBMIT"; exit 1; }
STATE=""
for _ in $(seq 1 300); do
	STATUS="$(curl -fsS "$BASE/v1/jobs/$JOBREF")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "reference job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "reference job stuck in state '$STATE'"; exit 1; }
FP_WANT="$(curl -fsS "$BASE/v1/results/$JOBREF" | sed -n 's/.*"fingerprint": *"\([^"]*\)".*/\1/p')"
[ -n "$FP_WANT" ] || { echo "no reference fingerprint"; exit 1; }

"$BIN" -addr 127.0.0.1:0 >"$W1LOG" 2>&1 &
W1PID=$!
W1ADDR="$(wait_addr "$W1LOG" "$W1PID")"
"$BIN" -addr 127.0.0.1:0 >"$W2LOG" 2>&1 &
W2PID=$!
W2ADDR="$(wait_addr "$W2LOG" "$W2PID")"
# Fresh coordinator (cold cell cache) with a hair-trigger breaker: the
# first failure marks the dead worker down, and -probe-backoff 30s keeps
# it down for the rest of the leg so /v1/healthz shows the open breaker.
"$BIN" -addr 127.0.0.1:0 -peers "http://$W1ADDR,http://$W2ADDR" -shard 1 \
	-fail-threshold 1 -probe-backoff 30s >"$C2LOG" 2>&1 &
C2PID=$!
C2ADDR="$(wait_addr "$C2LOG" "$C2PID")"
CHAOS="http://$C2ADDR"
echo "chaos fleet up: coordinator $CHAOS, workers $W1ADDR + $W2ADDR"

SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_C}" "$CHAOS/v1/jobs")"
JOBC="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$JOBC" ] || { echo "no job id in: $SUBMIT"; exit 1; }

# Wait until worker 1 has completed at least one cell — the sweep is
# provably mid-flight — then SIGKILL it.
W1RUNS=""
for _ in $(seq 1 300); do
	W1RUNS="$(curl -fsS "http://$W1ADDR/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
	[ -n "$W1RUNS" ] && [ "$W1RUNS" -ge 1 ] && break
	sleep 0.05
done
[ -n "$W1RUNS" ] && [ "$W1RUNS" -ge 1 ] || { echo "worker 1 never simulated a cell"; exit 1; }
kill -9 "$W1PID"
echo "killed worker 1 after $W1RUNS cells"

STATE=""
for _ in $(seq 1 300); do
	STATUS="$(curl -fsS "$CHAOS/v1/jobs/$JOBC")"
	STATE="$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "chaos job failed: $STATUS"; exit 1; }
	sleep 0.2
done
[ "$STATE" = "done" ] || { echo "chaos job stuck in state '$STATE'"; exit 1; }

# The fingerprint must be byte-identical to the undisturbed run.
FP_GOT="$(curl -fsS "$CHAOS/v1/results/$JOBC" | sed -n 's/.*"fingerprint": *"\([^"]*\)".*/\1/p')"
[ "$FP_GOT" = "$FP_WANT" ] || {
	echo "chaos fingerprint diverged:"; echo " want $FP_WANT"; echo " got  $FP_GOT"; exit 1; }

# The coordinator's healthz must report the killed peer's open breaker,
# and the breaker gauge must have flipped to 2 (down) for that peer.
HEALTH="$(curl -fsS "$CHAOS/v1/healthz")"
printf '%s' "$HEALTH" | grep -q '"state": *"down"' \
	|| { echo "killed worker not reported down: $HEALTH"; exit 1; }
CHAOS_METRICS="$(curl -fsS "$CHAOS/metrics")"
printf '%s' "$CHAOS_METRICS" | grep -qF "asymd_breaker_state{peer=\"http://$W1ADDR\"} 2" \
	|| { echo "breaker gauge for killed worker is not 2 (down):"; \
	     printf '%s\n' "$CHAOS_METRICS" | grep asymd_breaker_state; exit 1; }
printf '%s' "$CHAOS_METRICS" | grep -q '^asymd_shard_failovers_total [1-9]' \
	|| { echo "no shard failovers recorded after worker kill"; exit 1; }
echo "chaos metrics OK: breaker down, failovers recorded"

# Accounting: no cell may be lost or double-served by the job...
HITS="$(printf '%s' "$STATUS" | sed -n 's/.*"cell_hits": *\([0-9]*\).*/\1/p')"
MISSES="$(printf '%s' "$STATUS" | sed -n 's/.*"cell_misses": *\([0-9]*\).*/\1/p')"
[ "$((HITS + MISSES))" = "$CELLS_C" ] \
	|| { echo "chaos job served $HITS hits + $MISSES misses, want $CELLS_C cells: $STATUS"; exit 1; }
# ...and the fleet's cell_runs must cover the whole grid: coordinator +
# surviving worker + what worker 1 ran before the kill.
C2RUNS="$(printf '%s' "$HEALTH" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
W2RUNS="$(curl -fsS "http://$W2ADDR/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
TOTAL=$((C2RUNS + W2RUNS + W1RUNS))
[ "$TOTAL" -ge "$CELLS_C" ] \
	|| { echo "fleet cell_runs $C2RUNS+$W2RUNS+$W1RUNS = $TOTAL do not cover $CELLS_C cells"; exit 1; }
echo "chaos smoke OK: fleet ran $TOTAL cells ($C2RUNS coord, $W2RUNS survivor, $W1RUNS pre-kill)"

echo "asymd smoke OK"

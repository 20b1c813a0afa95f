#!/usr/bin/env sh
# smoke_asymd.sh — build asymd and smoke three topologies:
#
#  1. single node: start on an ephemeral port, hit /v1/healthz, submit a
#     tiny burst-sweep, poll to done, assert a 64-hex fingerprint in a
#     one-line result sent with Content-Length, a 304 for a conditional
#     re-fetch, a warm-cache resubmit, and a renamed raw copy of the sweep
#     answered "done" in its 202 reply from the cell cache; then one tiny
#     job per client-selectable feature (every workload kind, daggen model
#     and disturbance kind, sym<N>, custom clusters, combined profiles,
#     every family) and a 400 for each unknown kind or model;
#  2. two nodes: start a worker and a coordinator peered to it
#     (-peers, -shard 1), submit a raw multi-cell spec, assert the worker
#     simulated shards, assert the coordinator's /fingerprint text (a
#     local re-run checked against the worker's digests) is the single
#     node's for the same spec, fetch a per-cell sim-time trace from the
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
# Used by CI (smoke job, through scripts/reach.sh) and runnable locally.
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

# wait_done <base url> <job id> <label> <tries>: poll the job every 0.2 s
# until it is "done" and print its final status; failed or stuck is an error.
wait_done() {
	_state=""
	for _ in $(seq 1 "$4"); do
		_status="$(curl -fsS "$1/v1/jobs/$2")"
		_state="$(printf '%s' "$_status" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
		[ "$_state" = "done" ] && { printf '%s' "$_status"; return 0; }
		[ "$_state" = "failed" ] && { echo "$3 failed: $_status" >&2; return 1; }
		sleep 0.2
	done
	echo "$3 stuck in state '$_state'" >&2
	return 1
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

wait_done "$BASE" "$JOB" "job" 150 >/dev/null

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

wait_done "$BASE" "$JOBG" "batch job" 150 >/dev/null

R1="$(curl -fsS "$BASE/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
DELTA=$((R1 - R0))
[ "$DELTA" = "3" ] || { echo "same-graph sweep advanced cell_runs by $DELTA, want 3"; exit 1; }
echo "batched same-graph sweep simulated exactly $DELTA cells"

# --- one tiny job per client-selectable feature ---------------------------

# Every choice a client can make in a spec document: each workload kind
# (synthetic, kmeans, heatdist, an inline dagfile graph, daggen), each
# daggen model, each disturbance kind, a sym<N> preset and a custom
# platform.clusters list, and time-varying disturbances stacked on one
# cluster (their profiles combine); then GET /v1/families and one
# {"family": …} POST per family. Each job must finish "done" with a 64-hex
# fingerprint; an unknown workload kind, generator model or disturbance
# kind must be a 400 that lists the known names.

# run_job <label> <request body>: submit, poll to done, check the fingerprint.
run_job() {
	_reply="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$2" "$BASE/v1/jobs")"
	_id="$(printf '%s' "$_reply" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
	[ -n "$_id" ] || { echo "$1: no job id in: $_reply"; exit 1; }
	wait_done "$BASE" "$_id" "$1" 150 >/dev/null
	curl -fsS "$BASE/v1/results/$_id" | grep -Eq '"fingerprint": *"[0-9a-f]{64}"' \
		|| { echo "$1: no 64-hex fingerprint"; exit 1; }
	echo "ok  $1"
}

# reject <label> <request body> <expected text>: a 400 that says the text.
reject() {
	_body="$(curl -sS -w '\n%{http_code}' -X POST -H 'Content-Type: application/json' -d "$2" "$BASE/v1/jobs")"
	[ "$(printf '%s\n' "$_body" | tail -n 1)" = "400" ] || { echo "$1: want a 400, got: $_body"; exit 1; }
	printf '%s' "$_body" | grep -qF "$3" || { echo "$1: the 400 does not say '$3': $_body"; exit 1; }
	echo "ok  $1"
}

# spec <name> <workload> [disturb] [platform]: a one-cell spec document.
spec() {
	printf '{"spec": {"name": "%s", "platform": %s, "workload": %s, "disturb": [%s], "policies": ["DAM-C"], "seed": 5}}' \
		"$1" "${4:-{\"preset\": \"tx2\"\}}" "$2" "${3:-}"
}

SYN='{"kind": "synthetic", "synthetic": {"kernel": "MatMul", "tasks": 300, "parallelism": 4}}'

# Workload kinds.
run_job "workload synthetic" "$(spec w-synthetic "$SYN")"
run_job "workload kmeans" "$(spec w-kmeans '{"kind": "kmeans", "kmeans": {"n": 2048, "grains": 8, "max_iters": 3}}')"
run_job "workload heatdist" "$(spec w-heatdist '{"kind": "heatdist", "heat": {"nodes": 2, "blocks_per_node": 4, "iters": 3, "rows_per_block": 8, "cols": 1024}}')"
run_job "workload dagfile" "$(spec w-dagfile "{\"kind\": \"dagfile\", \"dag\": $(tr -d '\n' <examples/dag/demo.json)}")"
for model in cholesky fork-join lu random-layered; do
	run_job "daggen $model" "$(spec "g-$model" "{\"kind\": \"daggen\", \"daggen\": {\"model\": \"$model\", \"tiles\": 4, \"layers\": 4, \"width\": 4}}")"
done

# Disturbance kinds.
run_job "disturb corun-cpu" "$(spec d-corun-cpu "$SYN" '{"kind": "corun-cpu", "cores": [0], "share": 0.5}')"
run_job "disturb corun-mem" "$(spec d-corun-mem "$SYN" '{"kind": "corun-mem", "cores": [2], "share": 0.5, "bw_factor": 0.5}')"
run_job "disturb dvfs" "$(spec d-dvfs "$SYN" '{"kind": "dvfs", "cluster": 0, "hi_hz": 2.035e9, "lo_hz": 3.45e8, "hi_dur": 0.05, "lo_dur": 0.05}')"
run_job "disturb stall" "$(spec d-stall "$SYN" '{"kind": "stall", "cores": [1], "from": 0.01, "to": 0.05}')"
run_job "disturb burst" "$(spec d-burst "$SYN" '{"kind": "burst", "cluster": 1, "share": 0.4, "busy_dur": 0.01, "idle_dur": 0.02, "phase_step": 0.005}')"
run_job "disturb throttle" "$(spec d-throttle "$SYN" '{"kind": "throttle", "cluster": 0, "from": 0.01, "to": 0.05, "floor": 0.3, "ramp_steps": 4}')"
# A time-varying clock and time-varying availability on one cluster: each
# core's rate profile is their combination.
run_job "disturb dvfs+burst" "$(spec d-combine "$SYN" '{"kind": "dvfs", "cluster": 0, "hi_hz": 2.035e9, "lo_hz": 3.45e8, "hi_dur": 0.05, "lo_dur": 0.05}, {"kind": "burst", "cluster": 0, "share": 0.4, "busy_dur": 0.01, "idle_dur": 0.02}')"
# A periodic clock and a one-off stall on one core: a periodic profile
# combines with an aperiodic one.
run_job "disturb dvfs+stall" "$(spec d-combine-stall "$SYN" '{"kind": "dvfs", "cluster": 0, "hi_hz": 2.035e9, "lo_hz": 3.45e8, "hi_dur": 0.05, "lo_dur": 0.05}, {"kind": "stall", "cores": [1], "from": 0.01, "to": 0.05}')"

# Hostile input: an unknown name is a 400 that lists the known ones.
reject "unknown workload kind" "$(spec x-kind '{"kind": "nope"}')" 'known kinds: synthetic, kmeans, heatdist, dagfile, daggen'
reject "unknown daggen model" "$(spec x-model '{"kind": "daggen", "daggen": {"model": "nope"}}')" 'known models: cholesky, fork-join, lu, random-layered'
reject "unknown disturbance kind" "$(spec x-disturb "$SYN" '{"kind": "nope"}')" 'known kinds: corun-cpu, corun-mem, dvfs, stall, burst, throttle'
reject "unknown kernel" "$(spec x-kernel '{"kind": "synthetic", "synthetic": {"kernel": "FFT"}}')" 'scenario: unknown workload.synthetic.kernel \"FFT\" (known kernels: MatMul, Copy, Stencil)'
reject "unknown policy" "{\"spec\": {\"workload\": $SYN, \"policies\": [\"SJF\"]}}" 'core: unknown policy \"SJF\"'
# The other documents a spec parse refuses, each with its own text.
reject "missing workload kind" "$(spec x-nokind '{}')" 'scenario: unknown workload.kind \"\"'
reject "unknown spec field" "$(spec x-field '{"kind": "synthetic", "bogus": 1}')" 'decode request: json: unknown field \"bogus\"'
reject "no policies" "{\"spec\": {\"workload\": $SYN}}" 'empty policy set'
# A cluster without memory bandwidth is refused, not run into a panic.
reject "cluster without mem_bandwidth" "$(spec x-bandwidth "$SYN" "" '{"clusters": [{"name": "c", "first_core": 0, "num_cores": 2, "widths": [1, 2], "speed": 1, "base_hz": 1e9}]}')" 'mem_bandwidth'
# A family scale outside (0, 1] is refused, not run at full scale.
reject "family scale out of range" '{"family": "burst-sweep", "scale": -1}' 'family scale -1 outside (0, 1]'
# A seed or scale beside a spec is refused, not dropped: they apply to family.
reject "seed with spec" "{\"spec\": {\"workload\": $SYN, \"policies\": [\"RWS\"]}, \"seed\": 7}" '\"seed\" applies to family'
# A sim trace of a cell above the traced-task cap is a 400 that names the
# cap, before the cell runs again (the job itself runs).
_reply="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$(spec x-bigtrace '{"kind": "synthetic", "synthetic": {"kernel": "Copy", "tasks": 32769, "parallelism": 64}}')" "$BASE/v1/jobs")"
_id="$(printf '%s' "$_reply" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
_body="$(curl -sS -w '\n%{http_code}' "$BASE/v1/jobs/$_id/cells/0/simtrace")"
[ "$(printf '%s\n' "$_body" | tail -n 1)" = "400" ] && printf '%s' "$_body" | grep -qF 'MaxTracedTasks (32768)' \
	|| { echo "over-cap simtrace: want a 400 naming MaxTracedTasks (32768), got: $_body"; exit 1; }
echo "ok  reject over-cap simtrace"

# Platforms.
run_job "platform sym4" "$(spec p-sym4 "$SYN" "" '{"preset": "sym4"}')"
run_job "platform clusters" "$(spec p-clusters "$SYN" "" '{"clusters": [{"name": "big", "first_core": 0, "num_cores": 2, "widths": [1, 2], "speed": 3, "base_hz": 2e9, "l1_bytes": 65536, "l2_bytes": 2097152, "mem_bandwidth": 3e10}, {"name": "little", "first_core": 2, "num_cores": 4, "widths": [1, 2, 4], "speed": 1, "base_hz": 1.5e9, "l1_bytes": 32768, "l2_bytes": 2097152, "mem_bandwidth": 3e10}]}')"

# Families: the listing, then one job each.
FAMILIES="$(curl -fsS "$BASE/v1/families" | grep -o '"name": *"[^"]*"' | sed 's/.*"\([^"]*\)"$/\1/')"
[ -n "$FAMILIES" ] || { echo "GET /v1/families listed nothing"; exit 1; }
for fam in $FAMILIES; do
	run_job "family $fam" "{\"family\": \"$fam\", \"scale\": 0.01}"
done
echo "feature smoke OK"

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

wait_done "$COORD" "$JOB2" "sharded job" 150 >/dev/null

# The worker must have simulated some of the shards.
WRUNS="$(curl -fsS "http://$WADDR/v1/healthz" | sed -n 's/.*"cell_runs": *\([0-9]*\).*/\1/p')"
[ -n "$WRUNS" ] && [ "$WRUNS" -ge 1 ] || { echo "worker simulated $WRUNS cells, want >= 1"; exit 1; }
echo "worker simulated $WRUNS cells"

# The coordinator keeps each cell's summary and the digest the worker sealed;
# its /fingerprint re-runs the cells locally and checks every digest. The
# text must be the single node's for the same spec (a job ID is its spec
# hash, so the ID is the same on both nodes).
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"spec\": $SPEC_A}" "$BASE/v1/jobs")"
JOBS1="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ "$JOBS1" = "$JOB2" ] || { echo "single node filed the sharded spec as $JOBS1, coordinator as $JOB2"; exit 1; }
wait_done "$BASE" "$JOBS1" "single-node twin of the sharded job" 150 >/dev/null
TEXT_COORD="$(curl -fsS "$COORD/v1/results/$JOB2/fingerprint")"
TEXT_SINGLE="$(curl -fsS "$BASE/v1/results/$JOBS1/fingerprint")"
case "$TEXT_COORD" in
scenario=*) ;;
*) echo "coordinator /fingerprint does not start 'scenario='"; exit 1 ;;
esac
[ "$TEXT_COORD" = "$TEXT_SINGLE" ] || { echo "coordinator /fingerprint text differs from the single node's"; exit 1; }
echo "coordinator /fingerprint replays the worker's cells to the single node's text"

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

STATUS="$(wait_done "$COORD" "$JOB3" "delta job" 150)"

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
wait_done "$BASE" "$JOBREF" "reference job" 300 >/dev/null
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

STATUS="$(wait_done "$CHAOS" "$JOBC" "chaos job" 300)"

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

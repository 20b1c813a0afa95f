#!/usr/bin/env sh
# smoke_dagsim.sh — build dagsim and smoke the DAG import/generate path:
#
#  1. import the bundled examples/dag/demo.dot, assert the run completes
#     a nonzero number of tasks and prints a fingerprint;
#  2. run it again and assert the fingerprint is bit-stable;
#  3. import the JSON twin (demo.json) and assert it reports the same
#     content digest — format and declaration order cannot change the
#     workload's identity;
#  4. generate a Cholesky DAG and assert its fingerprint is stable too;
#  5. run it once more with -trace: tracing cannot move the fingerprint,
#     and the file is a JSON array holding task slices and the four counter
#     lanes (queue depth, ready tasks, ptt rel err, core util); -trace into a
#     missing directory fails before the run, naming the path, and a traced
#     run that fails removes its partial file;
#  6. worker-count independence on shared graphs: every cell of a sweep reads
#     its variant's one frozen graph, so asymbench fig4a (synthetic) and fig10
#     (distributed heat, one graph per node) must print the same bytes on one
#     worker (GOMAXPROCS=1) as on the default executor's GOMAXPROCS workers,
#     but for the "(… in N.Ns)" wall-time lines;
#  7. the CLIs' report modes: dagsim refuses an unknown policy, dagsim
#     -list and asymbench -list name their entries, dagsim -tasks 0's header
#     names the workload that ran (the paper's 32 000 tasks), the schedule
#     reports of dagsim -explain and asymbench -exp burst-sweep -explain
#     -progress are checked line by line, asymbench -exp fig4a -explain
#     runs the paper figure as its family, with schedule reports, and
#     asymbench -exp all -explain runs every id, families with reports.
#
# Used by CI (smoke job, through scripts/reach.sh) and runnable locally.
set -eu

cd "$(dirname "$0")/.."

BIN="${TMPDIR:-/tmp}/dagsim-smoke"
go build -o "$BIN" ./cmd/dagsim

run_fp() {
	# run_fp <args...>: run dagsim, print "<tasks> <digest> <fingerprint>".
	out="$("$BIN" "$@" -interfere dvfs -fingerprint)" || {
		echo "dagsim failed:" >&2
		printf '%s\n' "$out" >&2
		exit 1
	}
	tasks="$(printf '%s' "$out" | sed -n 's/.*tasks completed: \([0-9]*\).*/\1/p')"
	digest="$(printf '%s' "$out" | sed -n 's/.*digest \([0-9a-f]*\)).*/\1/p')"
	fp="$(printf '%s' "$out" | sed -n 's/^fingerprint: \([0-9a-f]*\)$/\1/p')"
	printf '%s %s %s' "${tasks:-0}" "${digest:-none}" "${fp:-none}"
}

# 1+2: imported DOT graph, nonzero tasks, stable fingerprint.
A="$(run_fp -dagfile examples/dag/demo.dot)"
B="$(run_fp -dagfile examples/dag/demo.dot)"
TASKS="${A%% *}"
[ "$TASKS" -ge 1 ] || { echo "imported run completed $TASKS tasks, want >= 1"; exit 1; }
[ "$A" = "$B" ] || { echo "imported-run fingerprint unstable: '$A' vs '$B'"; exit 1; }
echo "dot import OK: $TASKS tasks, fingerprint ${A##* }"

# 3: the JSON twin is the same workload (same content digest).
C="$(run_fp -dagfile examples/dag/demo.json)"
DIG_A="$(printf '%s' "$A" | cut -d' ' -f2)"
DIG_C="$(printf '%s' "$C" | cut -d' ' -f2)"
[ "$DIG_A" = "$DIG_C" ] || { echo "DOT and JSON digests differ: $DIG_A vs $DIG_C"; exit 1; }
[ "$A" = "$C" ] || { echo "DOT and JSON runs diverged: '$A' vs '$C'"; exit 1; }
echo "json twin OK: digest $DIG_C"

# 4: generated Cholesky DAG, stable fingerprint.
D="$(run_fp -gen cholesky -tiles 8)"
E="$(run_fp -gen cholesky -tiles 8)"
GTASKS="${D%% *}"
[ "$GTASKS" -eq 120 ] || { echo "cholesky T=8 completed $GTASKS tasks, want 120"; exit 1; }
[ "$D" = "$E" ] || { echo "generated-run fingerprint unstable: '$D' vs '$E'"; exit 1; }
echo "cholesky gen OK: $GTASKS tasks, fingerprint ${D##* }"

# 5: the traced run (Plan.RunCellTrace + Assemble) is the same run, and its
# Chrome trace parses with task slices and all four counter lanes.
TRACE="${TMPDIR:-/tmp}/dagsim-smoke-trace.json"
F="$(run_fp -gen cholesky -tiles 8 -trace "$TRACE")"
[ "$D" = "$F" ] || { echo "-trace changed the run: '$D' vs '$F'"; exit 1; }
python3 - "$TRACE" <<'PY' || { echo "trace file $TRACE is not a Chrome trace with X events and the four counter lanes"; exit 1; }
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list), type(events)
phases = {e["ph"] for e in events}
assert {"X", "C"} <= phases, phases
lanes = {e["name"] for e in events if e["ph"] == "C"}
want = {"queue depth", "ready tasks", "ptt rel err", "core util"}
assert want <= lanes, sorted(want - lanes)
PY
rm -f "$TRACE"
# The trace file is opened before the run: a path that cannot be written
# fails at once, naming the path, and a run that fails (an alpha the spec
# refuses) leaves no partial file behind.
NOFILE="${TMPDIR:-/tmp}/dagsim-smoke-no-such-dir/trace.json"
if "$BIN" -tasks 2000 -trace "$NOFILE" >"$TRACE.out" 2>&1; then echo "dagsim -trace into a missing directory succeeded"; exit 1; fi
grep -q "$NOFILE" "$TRACE.out" && ! grep -q 'tasks completed' "$TRACE.out" || { echo "dagsim -trace $NOFILE did not fail before the run, naming the path:"; cat "$TRACE.out"; exit 1; }
if "$BIN" -tasks 2000 -alpha 1.5 -trace "$TRACE" >"$TRACE.out" 2>&1; then echo "dagsim -alpha 1.5 -trace succeeded"; exit 1; fi
[ ! -e "$TRACE" ] || { echo "a failed traced run left its partial file $TRACE"; exit 1; }
rm -f "$TRACE.out"
echo "traced run OK: same fingerprint, trace parses with all four counter lanes; an unwritable path and a failed run leave no file"

# 6: one worker and GOMAXPROCS workers print the same sweep.
BENCH="${TMPDIR:-/tmp}/asymbench-smoke"
go build -o "$BENCH" ./cmd/asymbench
for exp in fig4a fig10; do
	one="$(GOMAXPROCS=1 "$BENCH" -exp "$exp" -scale 0.1 | grep -v ' in [0-9.]*s)$')"
	many="$("$BENCH" -exp "$exp" -scale 0.1 | grep -v ' in [0-9.]*s)$')"
	[ -n "$one" ] || { echo "asymbench -exp $exp printed nothing"; exit 1; }
	[ "$one" = "$many" ] || { echo "asymbench -exp $exp differs between 1 worker and the default worker count"; exit 1; }
done
echo "worker-count independence OK: fig4a and fig10 identical on 1 and $(getconf _NPROCESSORS_ONLN) CPUs"

# 7: the listings, a refused flag and the schedule reports.
OUT="${TMPDIR:-/tmp}/dagsim-smoke-report"
if "$BIN" -policy nope >"$OUT" 2>&1; then
	echo "dagsim accepted -policy nope"; exit 1
fi
grep -q 'unknown policy' "$OUT" || { echo "dagsim -policy nope did not name the policy:"; cat "$OUT"; exit 1; }
# Piped output is read to its end (grep without -q): a program that grep -q
# leaves writing into a closed pipe dies of SIGPIPE, and under reach.sh's
# coverage build that loses its counters.
"$BIN" -list | grep '^  random-layered$' >/dev/null || { echo "dagsim -list does not list random-layered"; exit 1; }
"$BENCH" -list | grep '^  fig9a$' >/dev/null || { echo "asymbench -list does not list fig9a"; exit 1; }
"$BIN" -tasks 0 | grep '^policy DAM-C, kernel MatMul, 32000 tasks, DAG parallelism 4,' >/dev/null ||
	{ echo "dagsim -tasks 0: the header does not describe the 32000-task default that runs"; exit 1; }
"$BIN" -explain -tasks 500 >"$OUT"
for want in '^per-core time breakdown' '^steal matrix' '^queues: mean ready' '^ptt: [0-9]* predictions'; do
	grep -q "$want" "$OUT" || { echo "dagsim -explain: no line matching '$want'"; exit 1; }
done
"$BENCH" -exp burst-sweep -scale 0.01 -explain -progress >"$OUT" 2>"$OUT.progress"
for want in '^# burst-sweep$' '^## schedule report: RWS$' '^## schedule report: DAM-P$' '^per-core time breakdown' \
	'^steal matrix' '^queues: mean ready' '^ptt: no predictions' '^ptt: [0-9]* predictions'; do
	grep -q "$want" "$OUT" || { echo "asymbench -explain: no line matching '$want'"; exit 1; }
done
grep -q '21/21 cells' "$OUT.progress" || { echo "asymbench -progress never reported 21/21 cells"; exit 1; }
"$BENCH" -exp fig4a -scale 0.01 -explain | grep '^## schedule report: DAM-C$' >/dev/null ||
	{ echo "asymbench -exp fig4a -explain: no DAM-C schedule report"; exit 1; }
# Under -exp all, the drivers that are no family render as without -explain.
"$BENCH" -exp all -explain -scale 0.05 >"$OUT" || { echo "asymbench -exp all -explain failed"; exit 1; }
grep -q '^## schedule report: DAM-C$' "$OUT" || { echo "asymbench -exp all -explain: no DAM-C schedule report"; exit 1; }
rm -f "$OUT" "$OUT.progress"
echo "reports OK: dagsim -list/-explain/-policy nope/-tasks 0, asymbench -list/-exp burst-sweep -explain -progress/-exp fig4a -explain/-exp all -explain"

echo "dagsim smoke OK"

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
#     and the file is a JSON array holding task slices and counter lanes;
#  6. worker-count independence on shared graphs: every cell of a sweep reads
#     its variant's one frozen graph, so asymbench fig4a (synthetic) and fig10
#     (distributed heat, one graph per node) must print the same bytes on one
#     worker (GOMAXPROCS=1) as on the default executor's GOMAXPROCS workers,
#     but for the "(… in N.Ns)" wall-time lines.
#
# Used by CI (dagsim-smoke step) and runnable locally.
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

# 5: the traced run (Plan.RunCellTrace + Merge) is the same run, and its
# Chrome trace parses.
TRACE="${TMPDIR:-/tmp}/dagsim-smoke-trace.json"
F="$(run_fp -gen cholesky -tiles 8 -trace "$TRACE")"
[ "$D" = "$F" ] || { echo "-trace changed the run: '$D' vs '$F'"; exit 1; }
python3 - "$TRACE" <<'PY' || { echo "trace file $TRACE is not a Chrome trace with X and C events"; exit 1; }
import json, sys
events = json.load(open(sys.argv[1]))
phases = {e["ph"] for e in events}
assert isinstance(events, list) and {"X", "C"} <= phases, phases
PY
rm -f "$TRACE"
echo "traced run OK: same fingerprint, trace parses"

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

echo "dagsim smoke OK"

#!/usr/bin/env sh
# reach.sh — measure which statements production traffic reaches, and hold
# every function it never reaches to a verdict in scripts/reach.allow.
#
# The traffic: both smoke scripts (smoke_asymd.sh posts one job per
# client-selectable feature; smoke_dagsim.sh runs the CLIs' -list and
# -explain reports), `bench -seconds 5` (all five workloads, the daemons in
# child processes) and `asymbench -exp all -scale 0.1`. Every
# program it runs is built with coverage (GOFLAGS='-cover -coverpkg=./...'
# with GOCOVERDIR set: the scripts and bench's own builds call plain `go
# build` and inherit both) — except the bench binary itself, whose
# in-process kernel rows are measurements, not traffic.
#
# It prints the statements reached, as a count of the total and as a share,
# then every function at 0 %.
# Each of those must have a line in scripts/reach.allow:
#
#	<import path of the file>:<function>  <verdict>  <owner>
#
# where the verdict is `fault` (a hostile-input or fault path; the owner
# names the fuzz target or test that reaches it) or `item` (kept for an
# open ROADMAP item, which the owner names). The script fails on a 0 %
# function without a line, and on a listed function that the traffic now
# reaches — the same ratchet as the export allowlist in
# internal/simrt/exports_test.go: a line goes when its function is reached
# or deleted, and a new one is added only in the diff. The list was the same
# over seven runs on one 2-vCPU machine, so no line is marked as depending
# on timing; a failover or cancellation branch that starts to flicker is a
# finding, not a line to loosen.
#
# With -report, a mismatch against reach.allow is printed but does not fail
# the run; a leg of the traffic that fails still does. CI runs it so until
# the list has been seen stable on the CI runner too (ROADMAP item 12).
#
# Coverage runs are reach evidence only, never performance evidence.
#
# Usage: sh scripts/reach.sh [-report]
set -eu

REPORT=""
case "${1:-}" in
"") ;;
-report) REPORT=1 ;;
*) echo "usage: sh scripts/reach.sh [-report]" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
WORK="$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/cov" "$WORK/tmp"

# step <name> <command...>: run one leg of the traffic, its output in a log.
step() {
	_name="$1"
	shift
	"$@" >"$WORK/$_name.log" 2>&1 || { echo "reach.sh: $_name failed:" >&2; tail -n 30 "$WORK/$_name.log" >&2; exit 1; }
	echo "traffic: $_name"
}

GOFLAGS= go build -o "$WORK/bench" ./bench
(
	export GOFLAGS='-cover -coverpkg=./...' GOCOVERDIR="$WORK/cov" TMPDIR="$WORK/tmp"
	step smoke_asymd sh scripts/smoke_asymd.sh
	step smoke_dagsim sh scripts/smoke_dagsim.sh
	step bench "$WORK/bench" -seconds 5
	go build -o "$WORK/" ./cmd/asymbench
	step asymbench "$WORK/asymbench" -exp all -scale 0.1
)

export GOFLAGS=
go tool covdata textfmt -i="$WORK/cov" -o "$WORK/cov.txt"
go tool cover -func="$WORK/cov.txt" >"$WORK/func.txt"
# The counts, not only the share: a change that deletes reached code lowers
# the share by arithmetic, and the share moves by ±0.1 between runs.
awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END { for (b in n) { t += n[b]; if (b in hit) r += n[b] }; printf "statements reached: %d of %d (%.1f %%)\n", r, t, 100 * r / t }' "$WORK/cov.txt"
# path:function of every function at 0 %.
awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1 ":" $2 }' "$WORK/func.txt" | sort -u >"$WORK/zero"
echo "functions at 0 % ($(wc -l <"$WORK/zero")):"
sed 's/^/  /' "$WORK/zero"

ALLOW=scripts/reach.allow
bad="$(awk '!/^#/ && NF && (NF < 3 || $2 !~ /^(fault|item)$/)' "$ALLOW")"
[ -z "$bad" ] || { printf 'reach.sh: malformed reach.allow lines (want "<path>:<function> fault|item <owner>"):\n%s\n' "$bad" >&2; exit 1; }
awk '!/^#/ && NF { print $1 }' "$ALLOW" | sort -u >"$WORK/listed"
status=0
for f in $(comm -23 "$WORK/zero" "$WORK/listed"); do
	echo "reach.sh: $f is at 0 % and has no verdict in scripts/reach.allow" >&2
	status=1
done
for f in $(comm -13 "$WORK/zero" "$WORK/listed"); do
	echo "reach.sh: $f is listed in scripts/reach.allow but the traffic reaches it (or it is gone); remove its line" >&2
	status=1
done
if [ "$status" -ne 0 ] && [ -n "$REPORT" ]; then
	echo "reach.sh: -report: the reach.allow mismatches above do not fail this run" >&2
	exit 0
fi
exit "$status"

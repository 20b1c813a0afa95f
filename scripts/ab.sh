#!/usr/bin/env sh
# ab.sh — same-session A/B of a base commit against the working tree, with
# the repository's own benchmark on both sides.
#
#   scripts/ab.sh <base-ref> [-repeat K] [-seconds N] [-seed0 S] [-out DIR] [workload...]
#
# ROADMAP aim 1 accepts a performance claim only from a same-session
# comparison against the base commit: this machine class drifts 30-40 % over
# hours, so two runs taken apart say nothing. The script checks <base-ref>
# out into a temporary shared clone (objects are borrowed, not copied, and
# nothing is registered in this repository), then runs K rounds (default 3);
# each round measures one set on each side, alternating which side goes
# first. With no workload named a set is `go run ./bench -repeat 1 -report`
# (all five workloads); with workloads named it is one `go run ./bench
# -workload W -trace 0` per workload. -seconds is passed through (default:
# the benchmark's run_seconds). With -seed0 S round k runs -seed S+k on both
# sides — a claim wants seeds unseen while the change was written — and
# without it every round runs the benchmark's default seed. The rounds are
# folded into base.json and head.json, `go run ./bench -compare base.json
# head.json` is printed, and its verdict is the exit status. -out DIR keeps
# the two reports (every round's set: the pair-by-pair wins a claim must
# state are not in the -compare table). The clone and the scratch directory
# are removed on every exit path.
set -eu

usage() {
	echo "usage: scripts/ab.sh <base-ref> [-repeat K] [-seconds N] [-seed0 S] [-out DIR] [workload...]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
base_ref=$1
shift
repeat=3
seconds=
seed0=
keep=
while [ $# -gt 0 ]; do
	case $1 in
	-repeat) [ $# -ge 2 ] || usage; repeat=$2; shift 2 ;;
	-seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
	-seed0) [ $# -ge 2 ] || usage; seed0=$2; shift 2 ;;
	-out) [ $# -ge 2 ] || usage; keep=$2; shift 2 ;;
	-*) usage ;;
	*) break ;;
	esac
done
case $repeat in '' | *[!0-9]* | 0) usage ;; esac
case $seed0 in *[!0-9]*) usage ;; esac

head_dir=$(cd "$(dirname "$0")/.." && pwd)
base_rev=$(git -C "$head_dir" rev-parse --verify "$base_ref^{commit}")
head_rev=$(git -C "$head_dir" rev-parse --short HEAD)
[ -z "$(git -C "$head_dir" status --porcelain)" ] || head_rev="$head_rev+dirty"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
base_dir=$tmp/base
cleanup() {
	trap - EXIT INT TERM
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
git clone --quiet --shared --no-checkout "$head_dir" "$base_dir"
git -C "$base_dir" checkout --quiet --detach "$base_rev"

# one_set <checkout> <out> <seed>: measure one set in the checkout and write
# it to <out> as a single JSON object keyed by workload name — the element
# type of a report's "sets" array (bench/report.go). An empty seed leaves the
# benchmark's default.
one_set() {
	co=$1 out=$2 seed=$3
	shift 3
	if [ $# -eq 0 ]; then
		(cd "$co" && go run ./bench -repeat 1 -report "$out.report" ${seconds:+-seconds "$seconds"} ${seed:+-seed "$seed"} >&2)
		# MarshalIndent output: the set is the lines between `"sets": [`
		# and the closing `  ]`.
		awk '/^  "sets": \[$/ { on = 1; next } /^  \]$/ { on = 0 } on' "$out.report" >"$out"
		return
	fi
	sep='{'
	for w in "$@"; do
		# The result line is the last line of standard output; its
		# {"value":v,"unit":u} metrics become the report's bare numbers.
		line=$(cd "$co" && go run ./bench -workload "$w" -trace 0 ${seconds:+-seconds "$seconds"} ${seed:+-seed "$seed"} | tail -n 1)
		printf '%s"%s":%s' "$sep" "$w" "$(printf '%s' "$line" |
			sed -e 's/{"value":\([^,}]*\),"unit":"[^"]*"}/\1/g' \
				-e 's/"correct":[a-z]*,//' -e 's/"metrics":/"end_to_end":/')"
		sep=','
	done >"$out"
	echo '}' >>"$out"
}

# fold <commit> <side>: wrap the side's per-round sets into a report. Its
# seed field is -seed0 (round k ran seed0+k), or the benchmark's default, 1.
fold() {
	printf '{"commit":"%s","seed":%s,"sets":[' "$1" "${seed0:-1}"
	k=1
	while [ "$k" -le "$repeat" ]; do
		[ "$k" -eq 1 ] || printf ','
		cat "$tmp/$2.$k.json"
		k=$((k + 1))
	done
	echo ']}'
}

k=1
while [ "$k" -le "$repeat" ]; do
	if [ $((k % 2)) -eq 1 ]; then first=base second=head; else first=head second=base; fi
	for side in $first $second; do
		echo "# ab: round $k/$repeat, $side" >&2
		if [ "$side" = base ]; then dir=$base_dir; else dir=$head_dir; fi
		one_set "$dir" "$tmp/$side.$k.json" "${seed0:+$((seed0 + k))}" "$@"
	done
	k=$((k + 1))
done
fold "$(git -C "$head_dir" rev-parse --short "$base_rev")" base >"$tmp/base.json"
fold "$head_rev" head >"$tmp/head.json"
if [ -n "$keep" ]; then
	mkdir -p "$keep"
	cp "$tmp/base.json" "$tmp/head.json" "$keep/"
fi

# The pair table. Metric order and direction come from BENCHMARK.json;
# quartiles interpolate linearly between order statistics.
python3 - "$tmp/base.json" "$tmp/head.json" "$head_dir/BENCHMARK.json" <<'PY'
import json, sys

base, head, bench = (json.load(open(p)) for p in sys.argv[1:4])

def quartiles(xs):
    xs = sorted(xs)
    def q(f):
        i = f * (len(xs) - 1)
        lo = int(i)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)
    return q(0.25), q(0.5), q(0.75)

def show(xs):
    q1, med, q3 = quartiles(xs)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)

rows = [("workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "won/lost/tied", "claimable")]
for w in base["sets"][0]:
    pairs = [(b[w], h[w]) for b, h in zip(base["sets"], head["sets"]) if w in b and w in h]
    for side, name in ((0, "base"), (1, "head")):
        failed = sum(p[side].get("failed", 0) for p in pairs)
        if failed:
            print("# pairs: %s: %d operations failed on the %s side" % (w, failed, name))
    for m in bench["end_to_end"]:
        sign = 1 if m["better"] == "higher" else -1
        bs = [p[0]["end_to_end"][m["name"]] for p in pairs]
        hs = [p[1]["end_to_end"][m["name"]] for p in pairs]
        won = sum(sign * (h - b) > 0 for b, h in zip(bs, hs))
        lost = sum(sign * (h - b) < 0 for b, h in zip(bs, hs))
        bq1, bmed, bq3 = quartiles(bs)
        gap = quartiles(hs)[1] - bmed
        ok = len(pairs) >= 10 and 10 * won >= 9 * len(pairs) and sign * gap > bq3 - bq1
        rows.append((w, m["name"], show(bs), show(hs),
                     "%+.1f%%" % (100 * gap / bmed) if bmed else "n/a",
                     "%d/%d/%d" % (won, lost, len(pairs) - won - lost), "yes" if ok else "no"))
widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
print("# pairs: round k of base against round k of head (%d rounds)" % len(base["sets"]))
for r in rows:
    print("  " + "  ".join(c.rjust(n) for c, n in zip(r, widths)))
PY

(cd "$head_dir" && go run ./bench -compare "$tmp/base.json" "$tmp/head.json")

#!/usr/bin/env sh
# loc.sh — print the number of non-test Go lines outside bench/, and fail if
# it exceeds the ceiling below; then print the number of options: asymd
# flags plus the exported fields of service.Config and simrt.Config.
#
# ROADMAP tracks both numbers (aim 2: the same behaviour from less code and
# fewer knobs) and CHANGES.md records them per PR; CI runs the script in the
# test job. Each ceiling is a ratchet: a PR that removes code or an option
# lowers it to the new count, a PR that needs more room raises it on purpose,
# in the diff, where a reviewer sees it.
#
# The third ratchet, exports under internal/ without a production caller in
# another package, is a Go test, TestEveryExportHasAProductionCaller in
# internal/simrt/exports_test.go, run by `go test ./...`. Its ceiling is its
# allowlist: an entry goes when the ROADMAP item it names lands, and a new
# one is added only in the diff. Beside it, TestEveryUnexportedFuncHasACaller
# fails on any unexported function or method under internal/ and cmd/ that
# no non-test file uses; it has no allowlist.
#
# The fourth tracked number, the share of statements production traffic
# reaches, comes from scripts/reach.sh, which holds every function at 0 % to
# a verdict in scripts/reach.allow (a CI job of its own: it takes minutes).
set -eu
ceiling=14457
options_ceiling=29
cd "$(dirname "$0")/.."
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)
echo "$n"
if [ "$n" -gt "$ceiling" ]; then
	echo "loc.sh: $n non-test lines exceed the ceiling of $ceiling (see the header)" >&2
	exit 1
fi

# config_fields FILE: the exported fields of FILE's `type Config struct`.
config_fields() {
	awk '
		/^type Config struct \{/ { on = 1; next }
		on && /^}/ { exit }
		on && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) {
			names = substr($0, RSTART, RLENGTH)
			n += gsub(/,/, ",", names) + 1
		}
		END { print n + 0 }
	' "$1"
}
flags=$(grep -c 'flag\.[A-Z][A-Za-z0-9]*("' cmd/asymd/main.go)
svc=$(config_fields internal/service/service.go)
rt=$(config_fields internal/simrt/simrt.go)
options=$((flags + svc + rt))
echo "$options options (asymd flags $flags + service.Config $svc + simrt.Config $rt)"
if [ "$options" -gt "$options_ceiling" ]; then
	echo "loc.sh: $options options exceed the ceiling of $options_ceiling (see the header)" >&2
	exit 1
fi

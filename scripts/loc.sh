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
set -eu
ceiling=15560
options_ceiling=35
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

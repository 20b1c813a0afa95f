#!/usr/bin/env sh
# loc.sh — print the number of non-test Go lines outside bench/, and fail if
# it exceeds the ceiling below.
#
# ROADMAP tracks this number (aim 2: the same behaviour from less code) and
# CHANGES.md records it per PR; CI runs the script in the test job. The
# ceiling is a ratchet: a PR that removes code lowers it to the new count, a
# PR that needs more room raises it on purpose, in the diff, where a reviewer
# sees it.
set -eu
ceiling=15935
cd "$(dirname "$0")/.."
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)
echo "$n"
if [ "$n" -gt "$ceiling" ]; then
	echo "loc.sh: $n non-test lines exceed the ceiling of $ceiling (see the header)" >&2
	exit 1
fi

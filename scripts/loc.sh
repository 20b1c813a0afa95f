#!/usr/bin/env sh
# loc.sh — print the number of non-test Go lines outside bench/.
#
# ROADMAP tracks this number (aim 2: the same behaviour from less code) and
# CHANGES.md records it per PR; CI prints it in the test job.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

#!/usr/bin/env sh
# nofma.sh — fail if the compiler fuses any floating-point multiply-add in the
# module, on any of the architectures whose Go compiler does so.
#
# The Go specification lets an implementation fuse x*y + z into one
# multiply-add, which rounds once where the source rounds twice, and says an
# explicit conversion, float64(x*y), rounds and so prevents the fusion. The
# amd64 compiler never fuses; arm64, ppc64le, s390x and riscv64 do. A cell's
# metrics, its hash and a job's fingerprint must be a function of the spec,
# not of the host's GOARCH, so every product that meets an add or a subtract
# in the module's non-test code is written float64(x*y).
#
# The script cross-compiles every package under internal/ and cmd/ (every
# package that feeds a RunMetrics or a fingerprint, and the daemon around
# them) with -gcflags=-S for each of those architectures — the standard
# library builds from GOROOT, so nothing is downloaded — and lists each fused
# instruction with its source line. It exits 1 if there is any. CI's test
# job runs it.
#
# Usage: sh scripts/nofma.sh
set -eu
cd "$(dirname "$0")/.."
status=0
for arch in arm64 ppc64le s390x riscv64; do
	# -S prints one instruction per line:
	#	0x0104 00260 (/path/file.go:81)	FMADDD	F9, F10, F8, F9
	# The fused mnemonics of the four back ends are F[N]M{ADD,SUB} with an
	# optional D or S precision suffix.
	found=$(GOARCH=$arch go build -gcflags='dynasym/...=-S' ./internal/... ./cmd/... 2>&1 |
		awk '$4 ~ /^FN?M(ADD|SUB)[DS]?$/ { print $3, $4 }' | sed "s|($PWD/|(|" | sort -u) || true
	if [ -n "$found" ]; then
		echo "nofma.sh: $arch fuses multiply-adds (write the product as float64(x*y)):" >&2
		echo "$found" >&2
		status=1
	else
		echo "$arch: no fused multiply-add"
	fi
done
exit $status

#!/usr/bin/env bash
# check_no_fma.sh — fail if the compiler fuses a floating-point
# multiply and add anywhere in the program packages.
#
# Go may compile x*y + z into one fused multiply-add, which rounds once
# instead of twice, on architectures that have the instruction (arm64,
# ppc64le, s390x, riscv64; amd64 only from GOAMD64=v3). The model's
# numbers would then differ by an ulp from one platform to another. An
# explicit float64(x*y) rounds the product and forbids the fusion, so
# every product that meets an addition in internal/ and cmd/ is
# written that way. This script cross-compiles both trees for each of
# those architectures with -gcflags=-S and greps the assembly for the
# fused instructions. The compiler's listing is replayed from the build
# cache, so a cached package is checked too.
#
# Usage: scripts/check_no_fma.sh   (from anywhere in the repository)
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for arch in arm64 riscv64 ppc64le s390x; do
	case $arch in
	arm64 | riscv64) ops='FMADDD|FMSUBD|FNMADDD|FNMSUBD' ;;
	ppc64le | s390x) ops='FMADDS?|FMSUBS?|FNMADDS?|FNMSUBS?' ;;
	esac
	if ! listing=$(GOARCH=$arch go build -o /dev/null -gcflags=-S ./internal/... ./cmd/... 2>&1); then
		echo "$listing" | grep -v '^[[:space:]]' >&2
		exit 1
	fi
	if hits=$(grep -E "^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+($ops)[[:space:]]" <<<"$listing"); then
		echo "fused multiply-add on $arch:"
		grep -oE '\([^)]*\.go:[0-9]+\)' <<<"$hits" | sort | uniq -c
		status=1
	fi
done
exit $status

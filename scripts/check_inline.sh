#!/usr/bin/env bash
# check_inline.sh — fail unless the compiler inlines the trace
# recorder's per-instruction appends into the interpreter.
#
# funcsim's interpreter calls trace.(*Builder).AppendID and AppendAddr
# once per executed instruction. AppendID sits at the inliner's budget
# (cost 80 of 80), so a small edit to it, or to what it calls, can stop
# it from inlining; a version that did recorded gsm_c about 30% slower,
# and no test fails when that happens. This script builds
# internal/funcsim with -gcflags=-m and looks for both inlining
# decisions. The compiler's report is replayed from the build cache, so
# a cached package is checked too.
#
# Usage: scripts/check_inline.sh   (from anywhere in the repository)
set -euo pipefail

cd "$(dirname "$0")/.."

if ! report=$(go build -o /dev/null -gcflags=-m ./internal/funcsim/ 2>&1); then
	echo "$report" >&2
	exit 1
fi
status=0
for fn in AppendID AppendAddr; do
	if ! grep -q "inlining call to trace.(\*Builder).$fn\$" <<<"$report"; then
		echo "trace.(*Builder).$fn is no longer inlined into internal/funcsim"
		status=1
	fi
done
exit $status

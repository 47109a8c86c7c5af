#!/usr/bin/env bash
# Fails unless every test-name prefix given before "--" names at least
# one test in the packages after it. `go test -run` passes silently when
# a pattern matches nothing, so without this check a renamed or deleted
# test would drop out of a CI filter unnoticed.
#
#   bash .github/require-tests.sh TestFoo TestBar -- . ./internal/core
set -euo pipefail

names=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	names+=("$1")
	shift
done
if [ $# -eq 0 ] || [ ${#names[@]} -eq 0 ]; then
	echo "usage: $0 TestName... -- package..." >&2
	exit 2
fi
shift

listed=$(go test -list '.*' "$@" | grep '^Test' || true)
missing=0
for n in "${names[@]}"; do
	if ! grep -q "^$n" <<<"$listed"; then
		echo "require-tests: no test matches $n in $*" >&2
		missing=1
	fi
done
exit $missing

#!/usr/bin/env bash
# run-cells.sh PATTERN [go test flags...] runs the root package's tests that
# `-run PATTERN` selects, verbose, and fails unless at least one
# TestEquivalence/<recipe>/<placement> cell passed among them: `go test -run`
# passes silently when its pattern matches nothing, so a typo in a cell name
# would otherwise void the coverage a CI job claims.
#
#   bash .github/run-cells.sh '^TestEquivalence$/.*/^R2-conc' -race -count=1
set -euo pipefail
pattern=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -v -run "$pattern" "$@" . 2>&1 | tee "$log"
cells=$(grep -cE '^ +--- PASS: TestEquivalence/[^/ ]+/[^ ]+ ' "$log" || true)
echo "run-cells: $cells TestEquivalence cell runs passed for -run '$pattern'"
if [ "$cells" -eq 0 ]; then
  echo "run-cells: -run '$pattern' selected no TestEquivalence/<recipe>/<placement> cell" >&2
  exit 1
fi

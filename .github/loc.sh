#!/usr/bin/env bash
# loc.sh [DIR] prints the non-test Go lines of the module at DIR (default
# .) per package directory, the way every change's CHANGES.md entry
# counts them: `find <pkg> -maxdepth 1 -name '*.go' ! -name '*_test.go' |
# xargs cat | wc -l`, outside benchmark/ (a module of its own). The
# total leaves out internal/tensor, whose kernel twins grow with every
# kernel level; that package's Go lines and the tree's assembly (.s)
# lines are reported on their own rows. Information only: it gates
# nothing.
#
#   bash .github/loc.sh            # this tree
#   bash .github/loc.sh ../parent  # a checkout of the parent, to diff
set -euo pipefail
cd "${1:-.}"
count() { find "$1" -maxdepth 1 -name "$2" ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }
total=0
while read -r dir; do
  n=$(count "$dir" '*.go')
  pkg=${dir#./}
  printf '%-36s %6d\n' "${pkg:-.}" "$n"
  [ "$dir" = ./internal/tensor ] || total=$((total + n))
done < <(find . -path ./benchmark -prune -o -path ./.git -prune -o -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u)
printf '%-36s %6d\n' 'total outside internal/tensor' "$total"
asm=$(find . -path ./benchmark -prune -o -name '*.s' -print0 | xargs -0 cat | wc -l)
printf '%-36s %6d\n' 'assembly (.s)' "$asm"

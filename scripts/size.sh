#!/usr/bin/env bash
# Non-test Go lines per internal/* package and cmd/* — the table the
# "Size" paragraph of an EXPERIMENTS.md entry quotes for parent and change.
#
#   scripts/size.sh          # this checkout
#   scripts/size.sh <dir>    # another checkout (a clone of the parent commit)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for d in internal/* cmd/*; do
  [ -d "$d" ] || continue
  n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%-28s %6d\n' "$d" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' total "$total"

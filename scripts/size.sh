#!/usr/bin/env bash
# Non-test Go lines per internal/* package and cmd/* — the table the
# "Size" paragraph of an EXPERIMENTS.md entry quotes for parent and change.
# The first column counts every line; the second counts code lines, with
# blank and //-only lines dropped.
#
#   scripts/size.sh          # this checkout
#   scripts/size.sh <dir>    # another checkout (a clone of the parent commit)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0 code_total=0
for d in internal/* cmd/*; do
  [ -d "$d" ] || continue
  n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  code=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cvE '^[[:space:]]*(//.*)?$' || true)
  printf '%-28s %6d %6d\n' "$d" "$n" "$code"
  total=$((total + n)) code_total=$((code_total + code))
done
printf '%-28s %6d %6d\n' total "$total" "$code_total"

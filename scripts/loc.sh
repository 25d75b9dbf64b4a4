#!/usr/bin/env bash
# Rust line count, a tracked number: prints the `wc -l` total of the
# `.rs` files in each source tree, test modules included, then the sum.
# Compare the output before and after a change to report its net size.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for tree in 'crates/*/src' tests 'vendor/*/src' perfbench/src; do
  # $tree stays unquoted so the crate globs expand.
  # shellcheck disable=SC2086
  n=$(find $tree -name '*.rs' -print0 | xargs -0 cat | wc -l)
  printf '%-14s %7d\n' "$tree" "$n"
  total=$((total + n))
done
printf '%-14s %7d\n' total "$total"

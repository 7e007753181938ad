#!/usr/bin/env bash
# Non-test Go lines per package directory: every line of every *.go file
# that is not *_test.go and not under a testdata/ tree, comments and blanks
# included. Subtraction PRs state their arithmetic with this: run it at
# the parent and at the change (`scripts/loc.sh [dir]`, default the
# checkout it lives in) and diff.
# The last two lines are the module total and the total outside benchmark/.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' \
  ! -path '*/testdata/*' ! -path './.git/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir)
         if (dir == "") dir = "."
         n[dir] += $1; all += $1
         if (dir !~ /^benchmark(\/|$)/) rest += $1
       }
       END {
         for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d total\n%7d total outside benchmark/\n", all, rest
       }'

#!/usr/bin/env bash
# Go lines per package directory: every line of every *.go file not under a
# testdata/ tree, comments and blanks included, as two columns — the
# non-test lines, then the *_test.go lines. Subtraction PRs state their
# arithmetic with this: run it at the parent and at the change
# (`scripts/loc.sh [dir]`, default the checkout it lives in) and diff.
# The last three lines are the module's non-test total, that total outside
# benchmark/ and the module's *_test.go lines.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -path '*/testdata/*' ! -path './.git/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir)
         if (dir == "") dir = "."
         seen[dir] = 1
         if ($2 ~ /_test\.go$/) { t[dir] += $1; tests += $1; next }
         n[dir] += $1; all += $1
         if (dir !~ /^benchmark(\/|$)/) rest += $1
       }
       END {
         for (d in seen) printf "%7d %7d %s\n", n[d], t[d], d | "sort -k3"
         close("sort -k3")
         printf "%7d total\n%7d total outside benchmark/\n%7d _test.go total\n", all, rest, tests
       }'

#!/usr/bin/env sh
# Non-test line counts, per file and per crate, for the crates whose size
# CHANGES.md and ROADMAP.md quote. A file's non-test lines are everything
# before its first top-level `#[cfg(test)]` (the in-file unit-test module),
# or `#![cfg(test)]` (a test-only file); a file without one counts whole.
# Run from anywhere.
#
#   scripts/loc.sh                  # every file, the per-crate totals, the sum
#   scripts/loc.sh shard service    # only these crates, and their sum
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- core service shard runtime durable delta graph intersect planner bench

sum=0
for crate in "$@"; do
    report=$(find "crates/$crate/src" -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /^#!?\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[FILENAME]++; total++ }
        END {
            for (f in lines) printf "%6d  %s\n", lines[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d  crates/%s/src (non-test)\n", total, crate
        }')
    printf '%s\n\n' "$report"
    sum=$((sum + $(printf '%s\n' "$report" | tail -n 1 | awk '{ print $1 }')))
done
printf '%6d  total over %s (non-test)\n' "$sum" "$*"

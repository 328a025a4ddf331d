#!/usr/bin/env sh
# Non-test line counts, per file and per crate, for the crates whose size
# CHANGES.md and ROADMAP.md quote. A file's non-test lines are everything
# before its first top-level `#[cfg(test)]` (the in-file unit-test module);
# a file without one counts whole. Run from anywhere.
#
#   scripts/loc.sh                  # every file, then the per-crate totals
#   scripts/loc.sh shard service    # only these crates
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- core service shard runtime durable bench

for crate in "$@"; do
    find "crates/$crate/src" -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[FILENAME]++; total++ }
        END {
            for (f in lines) printf "%6d  %s\n", lines[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d  crates/%s/src (non-test)\n\n", total, crate
        }'
done

#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, and a quick run of
# every workload against its oracle (tiny sizes, no numbers recorded,
# under 30 s once built). A later issue can add this one line to
# scripts/ci.sh:
#
#     ./benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --quick

# Sabotaged answers and a corrupted WAL tail must fail the run: exit
# code 3 is "failed as designed", anything else is a real problem.
set +e
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --self-check >/dev/null
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "check.sh: --self-check exited with $code, expected 3" >&2
    exit 1
fi
echo "benchmark/check.sh: ok"

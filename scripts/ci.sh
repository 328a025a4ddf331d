#!/usr/bin/env sh
# Full local gate. Run from anywhere; everything executes at the repo root.
#
# - rustfmt check;
# - release build (every library crate root carries
#   `#![forbid(unsafe_code)]`, so any `unsafe` fails it);
# - workspace tests (plain `cargo test` at the root runs only the facade);
# - every sm-service test binary (the durable conformance suite's byte
#   cuts, second crash, registration race, pinned epoch, counter oracle
#   and re-layout, plus the request, stream, semantics and slow-log
#   suites), every sm-shard test binary (that suite's sharded run, plus
#   the pulled gather's cancel and backpressure paths), and every
#   sm-durable and sm-delta test (torn tails, snapshot bytes, splice,
#   incremental equivalence) again in a release build, the code the
#   benchmark and deployments run;
# - clippy on every target, warnings denied;
# - rustdoc over the whole workspace, warnings denied;
# - release build of the `experiments` binary, which the steps below run;
# - trace-overhead: tracing stays inside its cost bound;
# - check-profile: JSONL run profiles round-trip and validate;
# - metrics-overhead: always-on telemetry stays within 2% of a
#   metrics-off service, and the Prometheus exposition parses back;
# - planner: warm auto stays within 1.5x of the per-query best fixed
#   combo, and a forced misprediction triggers a jump-redo replan;
# - fig8: the filters' per-vertex containment chain (STEADY within
#   CFL/CECI/DP-iso within NLF within LDF, GQL within NLF) on every
#   dataset, and recommended()'s compiled sets (GQL's at non-leaves,
#   within GQL and NLF at leaves);
# - fig9: each original local-candidate method and its Algorithm 5
#   variant report the same matches and outcome per query;
# - fig10: Hybrid and QFilter report the same matches and outcome per
#   query, and the four kernels return the same raw intersections;
# - fig11: the seven ordering methods report the same matches and
#   outcome per query;
# - parallel: every parallel run reports the 1-thread match count and
#   outcome;
# - patch: on `up`, with update-durable's query pool and update stream,
#   plans patched across 1, 8, 32, 64 and 96 commits equal fresh
#   compiles (equality only, no timing);
# - benchmark/check.sh: the perf ledger's own gate (fmt, clippy, unit
#   tests, a quick oracle-checked run of every workload, the sabotage
#   self-check); a bash script, so it runs through its shebang.
set -eu

cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q --workspace
cargo test --release -q -p sm-service
cargo test --release -q -p sm-shard
cargo test --release -q -p sm-durable -p sm-delta
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

cargo build --release -p sm-bench
./target/release/experiments trace-overhead --queries 2 --threads 4
./target/release/experiments check-profile --queries 1 --threads 4
./target/release/experiments metrics-overhead --threads 4
./target/release/experiments planner --queries 2 --threads 1 --seed 42
./target/release/experiments fig8 --queries 2
./target/release/experiments fig9 --queries 1 --threads 1
./target/release/experiments fig10 --queries 2 --threads 1
./target/release/experiments fig11 --queries 1 --threads 1
./target/release/experiments parallel --queries 1 --threads 2
./target/release/experiments patch --queries 2
./benchmark/check.sh

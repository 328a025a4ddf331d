#!/usr/bin/env sh
# Full local gate: formatting, release build, workspace tests, clippy with
# warnings denied, rustdoc with warnings denied, plus the observability
# smoke checks (trace overhead stays inside the bound; JSONL run profiles
# round-trip and validate), the service-layer concurrency smoke (two
# clients on a shared Service; asserts sequential-vs-concurrent count
# agreement and a nonzero plan-cache hit rate) and the dynamic-graph
# smoke (seeded update stream; asserts incremental standing-query
# maintenance equals full recompute after every batch) and the sharding
# smoke (scatter-gather over partitioned shards; asserts sharded counts
# equal single-service ground truth at every shard count) and the match-
# semantics smoke (asserts count-only == materialized length per mode and
# the homo >= edge-injective >= iso containment chain) and the
# durability smoke (WAL + snapshot kill-and-recover; asserts the
# recovered service answers identically to the pre-crash one and the
# post-compaction reopen replays zero batches) and the planner smoke
# (self-tuning cost-model planner; asserts warm auto stays within 1.5x
# of the per-query best fixed combo and a forced misprediction triggers
# at least one jump-redo replan) and the Figure 9 smoke (each original
# local-candidate method vs Algorithm 5; asserts both report the same
# matches and outcome per query) and the Figure 10 smoke (Hybrid vs
# QFilter; asserts both kernels report the same matches and outcome per
# query) and the parallel smoke (morsel-driven enumeration at 1 and 2
# threads; asserts each parallel run reports the 1-thread match count
# and outcome). Run from anywhere; everything executes
# at the repo root. Last, the perf ledger's own gate (fmt, clippy, unit
# tests, a quick oracle-checked run of every workload, the sabotage
# self-check); it is a bash script, so it runs through its shebang.
set -eu

cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

cargo build --release -p sm-bench
./target/release/experiments trace-overhead --queries 2 --threads 4
./target/release/experiments check-profile --queries 1 --threads 4
./target/release/experiments serve --queries 4 --clients 2 --threads 2
./target/release/experiments update --queries 2 --threads 2 --seed 42
./target/release/experiments shard --queries 2 --clients 2 --threads 2 --seed 42 --shards 1,2
./target/release/experiments semantics --queries 2 --threads 2 --seed 42
./target/release/experiments metrics-overhead --threads 4
./target/release/experiments durability --threads 2 --seed 42
./target/release/experiments planner --queries 2 --threads 1 --seed 42
./target/release/experiments fig9 --queries 1 --threads 1
./target/release/experiments fig10 --queries 2 --threads 1
./target/release/experiments parallel --queries 1 --threads 2
./benchmark/check.sh

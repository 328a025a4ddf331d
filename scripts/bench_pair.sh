#!/usr/bin/env sh
# Interleaved before/after measurement of a perf claim, appended to the
# committed trajectory.
#
#   scripts/bench_pair.sh [--expect-differ NAME[,NAME...]] [--claim WORKLOAD:METRIC]
#                         <parent-rev> [label]
#
# Exports <parent-rev> (`git archive`) and the working tree (tracked and
# unignored files) into two fresh sibling directories — update-durable
# fsyncs under its own checkout, and measuring one side in a long-used
# checkout cost it 5 % and 9 of 10 pairs that the same binaries did not
# lose from one directory — builds each into its own target directory,
# then runs BENCHMARK.json's command on both, one workload at a
# time, as PAIRS pairs: both sides of a pair get the same seed and the same
# `run_seconds`, and which side goes first alternates.
# Appends one line to BENCH_HISTORY.jsonl: commit, parent, machine, and per
# workload x end-to-end metric both sides' medians and quartiles and how
# many pairs the working tree won or lost (ties count for neither).
# Then one traced run per side per workload at SEED puts the work counters
# that repeat exactly (recursions, candidates, backtracks, intersection
# calls per query, the durable tier's fsyncs / WAL bytes / snapshots /
# replayed batches) into the line's `work` object and prints, per
# workload, `work counters: equal` or `work counters: DIFFER: <names>` —
# "same work, to the digit" as a recorded fact rather than prose. The
# traced run asks for 0.01 s, so it runs the benchmark's minimum of 2 + 2
# passes: fixed work, and counters that depend on the pass count repeat.
# A change that moves the search tree on purpose names the counters it
# expects to move with --expect-differ: each NAME is a work metric (every
# workload) or `workload:metric` (that one). They are recorded as the
# line's `expected_differ` list; a declared counter that moved prints as
# `declared DIFFER`, one that did not as `declared, but equal`, and only
# an undeclared DIFFER fails the run.
# A change that claims a gain names it with --claim WORKLOAD:METRIC (an
# end-to-end metric of BENCHMARK.json). The claim is met when the working
# tree wins at least 9 in 10 of the pairs run, ties counting for neither
# side, and its median beats the parent's, in the metric's `better`
# direction, by more than the parent's interquartile range. The script
# prints `CLAIM MET` or `CLAIM NOT MET` with the pairs won and the parent
# IQR, and records the verdict as the line's `claim` object.
# Last, the verdict: one row per workload x end-to-end metric — parent
# median -> child median, their ratio, pairs won / lost, and `OUTSIDE
# BOUND` where the child's median is worse than the parent's by more than
# BENCHMARK.json's bound (the rule `benchmark compare` applies). The
# script exits non-zero on any failed op, `OUTSIDE BOUND`, undeclared
# `DIFFER` or unmet claim, after appending the line either way.
#
# Environment: PAIRS (default 10), SEED (first pair's seed, default 42;
# pair i uses SEED+i), WORKLOADS (space-separated subset, default all of
# BENCHMARK.json's), BENCH_PAIR_DIR (build + scratch directory, default
# .bench_build/pair, which is git-ignored). Needs python3 for the JSON.
set -eu

usage="usage: $0 [--expect-differ NAME[,NAME...]] [--claim WORKLOAD:METRIC] <parent-rev> [label]"
expect=
claim=
while [ $# -gt 0 ]; do
    case $1 in
        --expect-differ)
            [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
            expect=${expect:+$expect,}$2
            shift 2
            ;;
        --claim)
            [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
            claim=$2
            shift 2
            ;;
        -*) echo "$usage" >&2; exit 2 ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
# Per-layer counters that depend only on the inputs, the algorithm and
# the (fixed) pass count, so two commits doing the same work report the
# same value to the digit. `lc_cache_hit_ratio` and
# `intersections_per_recursion` are ratios of exact counters: how often
# `LC` lists are read.
work_metrics="core.recursions_per_query core.candidates_avg core.backtrack_ratio
intersect.calls_per_query.merge intersect.calls_per_query.galloping
intersect.calls_per_query.hybrid intersect.calls_per_query.bsr
core.lc_cache_hit_ratio core.intersections_per_recursion
durable.fsyncs durable.wal_bytes durable.snapshots_written durable.replayed_batches"
for name in $(echo "$expect" | tr ',' ' '); do
    case " $(echo $work_metrics) " in
        *" ${name#*:} "*) ;;
        *) echo "--expect-differ $name: not a work metric:" $work_metrics >&2; exit 2 ;;
    esac
done
cd "$(dirname "$0")/.."
root=$(pwd)
parent=$(git rev-parse --verify "$1^{commit}")
label=${2:-}
pairs=${PAIRS:-10}
seed0=${SEED:-42}
dir=${BENCH_PAIR_DIR:-$root/.bench_build/pair}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

json() { python3 -c "import json,sys; b=json.load(open('$root/BENCHMARK.json')); print($1)"; }
seconds=$(json "b['run_seconds']")
workloads=${WORKLOADS:-$(json "' '.join(w['name'] for w in b['workloads'])")}
if [ -n "$claim" ]; then
    end_to_end=$(json "' '.join(m['name'] for m in b['end_to_end'])")
    case $claim in
        *:*) ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    case " $workloads " in
        *" ${claim%%:*} "*) ;;
        *) echo "--claim $claim: not one of the workloads run:" $workloads >&2; exit 2 ;;
    esac
    case " $end_to_end " in
        *" ${claim#*:} "*) ;;
        *) echo "--claim $claim: not an end-to-end metric:" $end_to_end >&2; exit 2 ;;
    esac
fi
# The declared command, one shell word per line (no word holds a blank).
json "'\n'.join(b['command'])" > "$dir/command"

rm -rf "$dir/parent-src" "$dir/child-src"
mkdir -p "$dir/parent-src" "$dir/child-src"
git archive "$parent" | tar -x -C "$dir/parent-src"
# Files deleted in the working tree are still listed; tar skips them.
git ls-files -z --cached --others --exclude-standard \
    | tar -c --null --ignore-failed-read -T - 2>/dev/null \
    | tar -x -C "$dir/child-src"

# run_side <parent|child> <args...>: the declared command plus <args>, run
# in that side's tree against that side's target directory.
run_side() {
    which=$1
    shift
    (
        cd "$dir/$which-src"
        export CARGO_TARGET_DIR="$dir/$which-target"
        # shellcheck disable=SC2046 # one word per line, split on purpose
        set -- $(cat "$dir/command") "$@"
        "$@"
    )
}

for which in parent child; do
    echo "building $which ..." >&2
    (cd "$dir/$which-src" && CARGO_TARGET_DIR="$dir/$which-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

raw=$dir/raw.jsonl
: > "$raw"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then order="parent child"; else order="child parent"; fi
    for w in $workloads; do
        for which in $order; do
            echo "pair $((i + 1))/$pairs  $w  $which  seed $seed" >&2
            result=$(run_side "$which" --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1)
            printf '{"pair": %d, "side": "%s", "workload": "%s", "result": %s}\n' \
                "$i" "$which" "$w" "$result" >> "$raw"
        done
    done
    i=$((i + 1))
done

work=$dir/work.jsonl
: > "$work"
for w in $workloads; do
    for which in parent child; do
        echo "work counters  $w  $which  seed $seed0" >&2
        result=$(run_side "$which" --workload "$w" --seed "$seed0" \
            --seconds 0.01 --trace 1 | tail -n 1)
        printf '{"side": "%s", "workload": "%s", "result": %s}\n' \
            "$which" "$w" "$result" >> "$work"
    done
done

commit=$(git rev-parse HEAD)
git diff --quiet HEAD 2>/dev/null || commit="$commit+worktree"
cpu=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)
status=0
RAW=$raw WORK=$work WORK_METRICS=$work_metrics EXPECT=$expect CLAIM=$claim COMMIT=$commit PARENT=$parent LABEL=$label PAIRS_RUN=$pairs SEED0=$seed0 \
SECONDS_RUN=$seconds NPROC=$(nproc) CPU=${cpu:-unknown} RUSTC=$(rustc -V) \
python3 - "$root/BENCHMARK.json" >> "$root/BENCH_HISTORY.jsonl" <<'EOF' || status=$?
import json, os, statistics, sys

bench = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
runs = {}  # (workload, side) -> {pair: result}
for line in open(os.environ["RAW"]):
    r = json.loads(line)
    runs.setdefault((r["workload"], r["side"]), {})[r["pair"]] = r["result"]

def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}

workloads = {}
for w in dict.fromkeys(w for w, _ in runs):
    p, c = runs[(w, "parent")], runs[(w, "child")]
    row = {"ops_failed": {s: sum(r["failed"] for r in side.values())
                          for s, side in (("parent", p), ("child", c))}}
    for name, direction in better.items():
        pv = [p[i]["metrics"][name]["value"] for i in sorted(p)]
        cv = [c[i]["metrics"][name]["value"] for i in sorted(c)]
        sign = 1 if direction == "higher" else -1
        row[name] = {
            "parent": spread(pv),
            "child": spread(cv),
            "pairs_won": sum(sign * (b - a) > 0 for a, b in zip(pv, cv)),
            "pairs_lost": sum(sign * (b - a) < 0 for a, b in zip(pv, cv)),
        }
    workloads[w] = row

WORK_METRICS = os.environ["WORK_METRICS"].split()
expected = [n for n in os.environ["EXPECT"].split(",") if n]
work = {}
for line in open(os.environ["WORK"]):
    r = json.loads(line)
    for name in WORK_METRICS:
        if name in r["result"]["metrics"]:
            value = r["result"]["metrics"][name]["value"]
            work.setdefault(r["workload"], {}).setdefault(name, {})[r["side"]] = value
failures = []
for w, counters in work.items():
    differ = {n for n, v in counters.items() if v.get("parent") != v.get("child")}
    declared = {n for n in counters if n in expected or f"{w}:{n}" in expected}
    verdicts = []
    for verdict, names in (("DIFFER", differ - declared),
                           ("declared DIFFER", differ & declared),
                           ("declared, but equal", declared - differ)):
        if names:
            verdicts.append(f"{verdict}: " + ", ".join(sorted(names)))
    print(f"{w}  work counters: {'; '.join(verdicts) or 'equal'}", file=sys.stderr)
    if differ - declared:
        failures.append(f"{w} undeclared work counters differ")

env = os.environ
claim = None
if env["CLAIM"]:
    w, name = env["CLAIM"].split(":", 1)
    m = workloads[w][name]
    sign = 1 if better[name] == "higher" else -1
    gain = sign * (m["child"]["median"] - m["parent"]["median"])
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pairs = len(runs[(w, "parent")])
    claim = {
        "workload": w,
        "metric": name,
        "pairs": pairs,
        "pairs_won": m["pairs_won"],
        "median_gain": gain,
        "parent_iqr": iqr,
        "met": 10 * m["pairs_won"] >= 9 * pairs and gain > iqr,
    }
line = {
    "schema": "bench-history/v1",
    "label": env["LABEL"],
    "commit": env["COMMIT"],
    "parent": env["PARENT"],
    "machine": {"nproc": int(env["NPROC"]), "cpu": env["CPU"], "rustc": env["RUSTC"]},
    "pairs": int(env["PAIRS_RUN"]),
    "seed_first": int(env["SEED0"]),
    "run_seconds": float(env["SECONDS_RUN"]),
    "workloads": workloads,
    "work": work,
    "expected_differ": expected,
}
if claim:
    line["claim"] = claim
print(json.dumps(line))

for w, row in workloads.items():
    for side, n in row["ops_failed"].items():
        if n > 0:
            failures.append(f"{w}: {n} ops failed on the {side} side")
    for name, direction in better.items():
        m = row[name]
        p, c = m["parent"]["median"], m["child"]["median"]
        worse_by = c - p if direction == "lower" else p - c
        outside = worse_by > bound[name] * abs(p)
        ratio = f"{c / p:7.3f}x" if p else "      -"
        print(f"{w:<15} {name:<14} {p:12.4f} -> {c:12.4f} {ratio}  "
              f"won {m['pairs_won']:>2} lost {m['pairs_lost']:>2}"
              + ("  OUTSIDE BOUND" if outside else ""), file=sys.stderr)
        if outside:
            failures.append(f"{w} {name} outside its bound")
if claim:
    verdict = "CLAIM MET" if claim["met"] else "CLAIM NOT MET"
    print(f"{verdict}: {claim['workload']} {claim['metric']} won {claim['pairs_won']}/"
          f"{claim['pairs']} pairs, median gain {claim['median_gain']:.4f} against a "
          f"parent IQR of {claim['parent_iqr']:.4f}", file=sys.stderr)
    if not claim["met"]:
        failures.append(f"claim {env['CLAIM']} not met")
for f in failures:
    print(f"FAIL: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
echo "appended one line to BENCH_HISTORY.jsonl" >&2
exit "$status"

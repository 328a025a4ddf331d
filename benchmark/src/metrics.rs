//! Every metric the binary emits, by name and unit — the one list
//! `BENCHMARK.json`, the README tables and `compare` all agree with.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it is a regression (0 = informational, no bound).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn bounded(def: MetricDef, bound: f64) -> MetricDef {
    MetricDef { bound, ..def }
}

/// What a user of the system sees. Every workload reports every one of
/// them from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    bounded(lower("setup_s", "s"), 0.25),
    bounded(higher("queries_per_s", "1/s"), 0.25),
    bounded(lower("query_p50_ms", "ms"), 0.25),
    bounded(lower("query_p95_ms", "ms"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.25),
];

/// Single-layer metrics, reported by the traced run; informational (no
/// bound). Layer = crate.
pub const PER_LAYER: &[MetricDef] = &[
    // graph (sm-graph, sm-datasets)
    lower("graph.generate_s", "s"),
    lower("graph.load_text_s", "s"),
    lower("graph.index_build_s", "s"),
    lower("graph.bytes_per_edge", "B"),
    lower("graph.canon_us", "us"),
    // intersect (sm-intersect)
    lower("intersect.merge_ns_per_elem", "ns"),
    lower("intersect.galloping_ns_per_elem", "ns"),
    lower("intersect.hybrid_ns_per_elem", "ns"),
    lower("intersect.bsr_ns_per_elem", "ns"),
    lower("intersect.calls_per_query.merge", "count"),
    lower("intersect.calls_per_query.galloping", "count"),
    lower("intersect.calls_per_query.hybrid", "count"),
    lower("intersect.calls_per_query.bsr", "count"),
    higher("intersect.bsr_fill_ratio", "ratio"),
    // core (sm-match)
    lower("core.plan_ms", "ms"),
    lower("core.execute_ms", "ms"),
    lower("core.filter_ms", "ms"),
    lower("core.order_ms", "ms"),
    lower("core.build_ms", "ms"),
    lower("core.plan_share", "ratio"),
    lower("core.enumerate_share", "ratio"),
    lower("core.recursions_per_query", "count"),
    higher("core.embeddings_per_s", "1/s"),
    lower("core.intersections_per_recursion", "ratio"),
    higher("core.lc_cache_hit_ratio", "ratio"),
    lower("core.backtrack_ratio", "ratio"),
    lower("core.candidates_avg", "count"),
    lower("core.candidate_bytes", "B"),
    lower("core.space_bytes", "B"),
    // runtime (sm-runtime)
    higher("runtime.speedup_2t", "ratio"),
    lower("runtime.morsels", "count"),
    lower("runtime.steals", "count"),
    higher("runtime.busy_share", "ratio"),
    higher("runtime.scratch_reuse", "count"),
    // planner (sm-planner)
    lower("planner.rank_us", "us"),
    lower("planner.combos_scored", "count"),
    lower("planner.auto_over_best_fixed", "ratio"),
    // service (sm-service)
    lower("service.overhead_us", "us"),
    higher("service.hit_ratio", "ratio"),
    lower("service.evictions", "count"),
    lower("service.plan_build_us", "us"),
    lower("service.queue_wait_us", "us"),
    lower("service.execute_us", "us"),
    lower("service.drain_us", "us"),
    lower("service.first_embedding_us", "us"),
    higher("service.stream_embeddings_per_s", "1/s"),
    lower("service.rejected", "count"),
    // delta (sm-delta)
    lower("delta.commit_us", "us"),
    lower("delta.incremental_us", "us"),
    lower("delta.incremental_over_full", "ratio"),
    lower("delta.compact_ms", "ms"),
    lower("delta.materialize_ms", "ms"),
    higher("delta.plans_retained_ratio", "ratio"),
    // durable (sm-durable)
    lower("durable.append_us", "us"),
    lower("durable.append_nosync_us", "us"),
    lower("durable.fsyncs", "count"),
    lower("durable.wal_bytes", "B"),
    lower("durable.segments_rotated", "count"),
    lower("durable.snapshots_written", "count"),
    lower("durable.snapshot_write_ms", "ms"),
    lower("durable.snapshot_bytes", "B"),
    lower("durable.snapshot_read_ms", "ms"),
    lower("durable.replayed_batches", "count"),
    lower("durable.replay_ms", "ms"),
    lower("durable.cold_text_load_ms", "ms"),
    // shard (sm-shard)
    lower("shard.partition_build_s", "s"),
    lower("shard.halo_replication", "ratio"),
    lower("shard.skew_pct", "%"),
    lower("shard.overhead_us", "us"),
    lower("shard.slowest_shard_share", "ratio"),
    higher("shard.gather_embeddings_per_s", "1/s"),
    // the benchmark itself
    lower("bench.oracle_s", "s"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.unattributed_share", "ratio"),
    // The update path seen by a client. Only `update-durable` has
    // updates in its loop, and an end-to-end metric must be reported by
    // every workload, so these are informational: elsewhere they come
    // from the small durable-update probe on the workload's own data.
    higher("updates_per_s", "1/s"),
    lower("update_p50_ms", "ms"),
    lower("update_p95_ms", "ms"),
    lower("recover_s", "s"),
    lower("wal_bytes_per_op", "B"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Named values collected by a run. Setting a name twice keeps the last
/// value (a workload's own loop overrides the generic probe).
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "unregistered metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The contract's `metrics` object for `defs`, in registry order.
    /// A missing or non-finite value is a bug in the workload: it is
    /// reported, not papered over.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            pairs.push((
                d.name.to_string(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in crate::workloads::NAMES {
            assert!(valid_name(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "name {w} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` may only name what the binary emits, with the
    /// same unit and direction.
    #[test]
    fn benchmark_json_names_are_emitted_by_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(section).and_then(Json::as_arr).expect(section);
            assert!(!listed.is_empty());
            for m in listed {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let def = defs
                    .iter()
                    .find(|d| d.name == name)
                    .unwrap_or_else(|| panic!("{section} metric {name} is not emitted"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{name}"
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(def.better.name()),
                    "{name}"
                );
                if section == "end_to_end" {
                    let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
                    assert_eq!(bound, def.bound, "{name}");
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
        assert!(listed.iter().all(|n| valid_name(n)));
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}

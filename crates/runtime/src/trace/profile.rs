//! Run profiles: the machine-readable export of a trace.
//!
//! A [`RunProfile`] is one (dataset, query, config) cell of an experiment
//! table. On the wire it is JSONL — one self-describing object per line —
//! so profiles can be streamed, concatenated across cells, and grepped:
//!
//! ```text
//! {"type":"meta","schema":2,"dataset":"rmat50k","query":"q0",...}
//! {"type":"span","id":0,"parent":null,"name":"run","start_ns":0,"end_ns":123}
//! {"type":"counters","worker":0,"recursions":412,...}
//! {"type":"totals","recursions":412,...}
//! ```
//!
//! A profile of any other schema is rejected (schema 1 also carried
//! per-worker `events` records).
//!
//! The same struct renders the human-readable `--trace` span tree
//! ([`RunProfile::render_tree`]) and the flamegraph-compatible
//! folded-stacks dump ([`RunProfile::folded_stacks`]).

use super::counters::{Counter, CounterBlock};
use super::json::Json;
use super::TraceSnapshot;

/// Wire schema version of the JSONL profile.
pub const PROFILE_SCHEMA: u64 = 2;

/// Identity of the run a profile describes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Data-graph name (e.g. `rmat50k`, `triangle-fixture`).
    pub dataset: String,
    /// Query name or index.
    pub query: String,
    /// Configuration cell (e.g. `morsel-t4`, `glasgow`).
    pub config: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// Whether the run was cancelled / hit a cap (profile is partial).
    /// Set by the profile's builder from the run's outcome.
    pub cancelled: bool,
}

/// One span of a parsed profile (like [`super::SpanRecord`] but with an
/// owned name, since parsed names are not `'static`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Span id (index in emission order).
    pub id: u32,
    /// Parent span id, `None` for roots.
    pub parent: Option<u32>,
    /// Phase name.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl ProfileSpan {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An aggregated node of the rendered span tree: all sibling spans with
/// the same name, collapsed (a run has one `filter` span but hundreds of
/// `morsel` spans — the tree shows `morsel ×312`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name.
    pub name: String,
    /// How many sibling spans were collapsed into this node.
    pub count: u64,
    /// Summed duration of the collapsed spans, nanoseconds.
    pub total_ns: u64,
    /// Aggregated children, in first-appearance order.
    pub children: Vec<SpanNode>,
}

/// A complete run profile: metadata, spans, per-worker counters and
/// merged totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunProfile {
    /// Run identity.
    pub meta: RunMeta,
    /// All spans, in creation order.
    pub spans: Vec<ProfileSpan>,
    /// Flushed per-worker counter blocks `(worker, block)`.
    pub counters: Vec<(usize, CounterBlock)>,
    /// Merge of every per-worker block (sums add, gauges max).
    pub totals: CounterBlock,
}

impl RunProfile {
    /// Build a profile from a finished trace's snapshot.
    pub fn from_snapshot(meta: RunMeta, snap: &TraceSnapshot) -> RunProfile {
        RunProfile {
            meta,
            spans: snap
                .spans
                .iter()
                .map(|s| ProfileSpan {
                    id: s.id,
                    parent: s.parent,
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                })
                .collect(),
            counters: snap.counters.clone(),
            totals: snap.totals(),
        }
    }

    /// Serialize to JSONL (one object per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = Json::Obj(vec![
            ("type".into(), Json::str("meta")),
            ("schema".into(), Json::u64(PROFILE_SCHEMA)),
            ("dataset".into(), Json::str(&self.meta.dataset)),
            ("query".into(), Json::str(&self.meta.query)),
            ("config".into(), Json::str(&self.meta.config)),
            ("threads".into(), Json::u64(self.meta.threads as u64)),
            ("cancelled".into(), Json::Bool(self.meta.cancelled)),
        ]);
        out.push_str(&meta.to_string_compact());
        out.push('\n');
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("type".into(), Json::str("span")),
                ("id".into(), Json::u64(s.id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                ),
                ("name".into(), Json::str(&s.name)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                ("end_ns".into(), Json::u64(s.end_ns)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for (worker, block) in &self.counters {
            out.push_str(&counter_line("counters", Some(*worker), block).to_string_compact());
            out.push('\n');
        }
        out.push_str(&counter_line("totals", None, &self.totals).to_string_compact());
        out.push('\n');
        out
    }

    /// Parse a JSONL profile emitted by [`RunProfile::to_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<RunProfile, String> {
        let mut profile = RunProfile::default();
        let mut saw_meta = false;
        let mut saw_totals = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ty = v
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
            match ty {
                "meta" => {
                    let schema = field_u64(&v, "schema", lineno)?;
                    if schema != PROFILE_SCHEMA {
                        return Err(format!(
                            "line {}: unsupported schema {schema} (want {PROFILE_SCHEMA})",
                            lineno + 1
                        ));
                    }
                    profile.meta = RunMeta {
                        dataset: field_str(&v, "dataset", lineno)?,
                        query: field_str(&v, "query", lineno)?,
                        config: field_str(&v, "config", lineno)?,
                        threads: field_u64(&v, "threads", lineno)? as usize,
                        cancelled: matches!(v.get("cancelled"), Some(Json::Bool(true))),
                    };
                    saw_meta = true;
                }
                "span" => {
                    profile.spans.push(ProfileSpan {
                        id: field_u64(&v, "id", lineno)? as u32,
                        parent: match v.get("parent") {
                            Some(Json::Null) | None => None,
                            Some(p) => Some(
                                p.as_u64()
                                    .ok_or_else(|| format!("line {}: bad \"parent\"", lineno + 1))?
                                    as u32,
                            ),
                        },
                        name: field_str(&v, "name", lineno)?,
                        start_ns: field_u64(&v, "start_ns", lineno)?,
                        end_ns: field_u64(&v, "end_ns", lineno)?,
                    });
                }
                "counters" => {
                    let worker = field_u64(&v, "worker", lineno)? as usize;
                    profile.counters.push((worker, parse_block(&v, lineno)?));
                }
                "totals" => {
                    profile.totals = parse_block(&v, lineno)?;
                    saw_totals = true;
                }
                other => return Err(format!("line {}: unknown line type {other:?}", lineno + 1)),
            }
        }
        if !saw_meta {
            return Err("profile has no meta line".to_string());
        }
        if !saw_totals {
            return Err("profile has no totals line".to_string());
        }
        Ok(profile)
    }

    /// Check the structural invariants of a profile:
    /// spans closed with `end >= start`, parents existing earlier spans
    /// whose interval contains the child's, and totals equal to the merge
    /// of the per-worker blocks.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.id as usize >= self.spans.len() || self.spans[s.id as usize].id != s.id {
                return Err(format!("span {} out of order", s.id));
            }
            if s.end_ns == u64::MAX {
                return Err(format!("span {} ({}) never closed", s.id, s.name));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            if let Some(p) = s.parent {
                if p >= s.id {
                    return Err(format!("span {} parent {p} is not an earlier span", s.id));
                }
                let parent = &self.spans[p as usize];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.id,
                        s.name,
                        s.start_ns,
                        s.end_ns,
                        parent.id,
                        parent.name,
                        parent.start_ns,
                        parent.end_ns
                    ));
                }
            }
        }
        let mut merged = CounterBlock::new();
        for (_, b) in &self.counters {
            merged.merge(b);
        }
        for c in Counter::ALL {
            if merged.get(c) != self.totals.get(c) {
                return Err(format!(
                    "totals.{} = {} but per-worker blocks merge to {}",
                    c.name(),
                    self.totals.get(c),
                    merged.get(c)
                ));
            }
        }
        Ok(())
    }

    /// Aggregate the spans into a tree of [`SpanNode`]s (siblings with the
    /// same name collapsed), in first-appearance order.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for s in &self.spans {
            match s.parent {
                Some(p) => children[p as usize].push(s.id),
                None => roots.push(s.id),
            }
        }
        self.aggregate(&roots, &children)
    }

    fn aggregate(&self, ids: &[u32], children: &[Vec<u32>]) -> Vec<SpanNode> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: Vec<(u64, u64, Vec<u32>)> = Vec::new(); // (count, total_ns, member ids)
        for &id in ids {
            let s = &self.spans[id as usize];
            let slot = match order.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    order.push(s.name.clone());
                    groups.push((0, 0, Vec::new()));
                    order.len() - 1
                }
            };
            groups[slot].0 += 1;
            groups[slot].1 += s.dur_ns();
            groups[slot].2.push(id);
        }
        order
            .into_iter()
            .zip(groups)
            .map(|(name, (count, total_ns, members))| {
                let kid_ids: Vec<u32> = members
                    .iter()
                    .flat_map(|&m| children[m as usize].iter().copied())
                    .collect();
                SpanNode {
                    name,
                    count,
                    total_ns,
                    children: self.aggregate(&kid_ids, children),
                }
            })
            .collect()
    }

    /// Human-readable per-phase tree (what `--trace` prints): durations,
    /// collapsed-sibling counts and run totals.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} / {} / {} ({} thread{}{})\n",
            self.meta.dataset,
            self.meta.query,
            self.meta.config,
            self.meta.threads,
            if self.meta.threads == 1 { "" } else { "s" },
            if self.meta.cancelled {
                ", cancelled"
            } else {
                ""
            },
        ));
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for n in nodes {
                let label = if n.count > 1 {
                    format!("{} ×{}", n.name, n.count)
                } else {
                    n.name.clone()
                };
                out.push_str(&format!(
                    "{:indent$}{label:<width$} {}\n",
                    "",
                    fmt_ns(n.total_ns),
                    indent = 2 * depth,
                    width = 28usize.saturating_sub(2 * depth),
                ));
                walk(&n.children, depth + 1, out);
            }
        }
        walk(&self.span_tree(), 1, &mut out);
        if !self.totals.is_zero() {
            out.push_str("  counters:\n");
            for (c, v) in self.totals.iter_nonzero() {
                out.push_str(&format!("    {:<24} {v}\n", c.name()));
            }
        }
        out
    }

    /// Flamegraph-compatible folded stacks: one `root;child;leaf self_ns`
    /// line per distinct span path, self time = span time minus child
    /// time (collapsed across same-name siblings).
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        fn walk(nodes: &[SpanNode], prefix: &str, out: &mut String) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix};{}", n.name)
                };
                let child_ns: u64 = n.children.iter().map(|c| c.total_ns).sum();
                let self_ns = n.total_ns.saturating_sub(child_ns);
                out.push_str(&format!("{path} {self_ns}\n"));
                walk(&n.children, &path, out);
            }
        }
        walk(&self.span_tree(), "", &mut out);
        out
    }
}

fn counter_line(ty: &str, worker: Option<usize>, block: &CounterBlock) -> Json {
    let mut fields = vec![("type".to_string(), Json::str(ty))];
    if let Some(w) = worker {
        fields.push(("worker".to_string(), Json::u64(w as u64)));
    }
    for (c, v) in block.iter_nonzero() {
        fields.push((c.name().to_string(), Json::u64(v)));
    }
    Json::Obj(fields)
}

fn parse_block(v: &Json, lineno: usize) -> Result<CounterBlock, String> {
    let Json::Obj(fields) = v else {
        return Err(format!("line {}: not an object", lineno + 1));
    };
    let mut block = CounterBlock::new();
    for (k, val) in fields {
        if k == "type" || k == "worker" {
            continue;
        }
        let c = Counter::from_name(k)
            .ok_or_else(|| format!("line {}: unknown counter {k:?}", lineno + 1))?;
        let n = val
            .as_u64()
            .ok_or_else(|| format!("line {}: counter {k:?} not a u64", lineno + 1))?;
        block.set(c, n);
    }
    Ok(block)
}

fn field_u64(v: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {}: missing/bad \"{key}\"", lineno + 1))
}

fn field_str(v: &Json, key: &str, lineno: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: missing/bad \"{key}\"", lineno + 1))
}

/// Render nanoseconds with an adaptive unit (`412ns`, `3.2µs`, `1.45ms`,
/// `2.31s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn sample_profile() -> RunProfile {
        let t = Trace::enabled();
        {
            let _run = t.span("run");
            {
                let _plan = t.span("plan");
                let _f = t.span("filter");
            }
            let _x = t.span("execute");
        }
        let mut b0 = CounterBlock::new();
        b0.add(Counter::Recursions, 7);
        b0.record_max(Counter::PeakDepth, 3);
        let mut b1 = CounterBlock::new();
        b1.add(Counter::Recursions, 5);
        b1.record_max(Counter::PeakDepth, 4);
        t.flush_counters(0, &b0);
        t.flush_counters(1, &b1);
        let meta = RunMeta {
            dataset: "fixture".into(),
            query: "q0".into(),
            config: "default".into(),
            threads: 2,
            cancelled: false,
        };
        RunProfile::from_snapshot(meta, &t.snapshot())
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let p = sample_profile();
        let text = p.to_jsonl();
        let back = RunProfile::parse_jsonl(&text).unwrap();
        assert_eq!(back, p);
        back.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_nesting() {
        let mut p = sample_profile();
        p.validate().unwrap();
        // child escaping its parent's interval
        p.spans[1].end_ns = p.spans[0].end_ns + 1_000_000;
        assert!(p.validate().unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn validate_catches_total_mismatch() {
        let mut p = sample_profile();
        p.totals.add(Counter::Recursions, 1);
        assert!(p.validate().unwrap_err().contains("totals.recursions"));
    }

    #[test]
    fn validate_catches_open_span() {
        let mut p = sample_profile();
        p.spans[2].end_ns = u64::MAX;
        assert!(p.validate().unwrap_err().contains("never closed"));
    }

    #[test]
    fn tree_collapses_same_name_siblings() {
        let t = Trace::enabled();
        {
            let run = t.span("run");
            let rid = run.id();
            for _ in 0..3 {
                let _m = t.span_under(rid, "morsel");
            }
        }
        let p = RunProfile::from_snapshot(RunMeta::default(), &t.snapshot());
        let tree = p.span_tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].name, "morsel");
        assert_eq!(tree[0].children[0].count, 3);
        let rendered = p.render_tree();
        assert!(rendered.contains("morsel ×3"), "{rendered}");
    }

    #[test]
    fn folded_stacks_have_paths_and_self_time() {
        let p = sample_profile();
        let folded = p.folded_stacks();
        assert!(folded.contains("run;plan;filter "), "{folded}");
        assert!(folded.contains("run;execute "), "{folded}");
        // every line is "path self_ns"
        for line in folded.lines() {
            let (path, ns) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            ns.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        assert!(RunProfile::parse_jsonl("").is_err()); // no meta
        assert!(RunProfile::parse_jsonl("{\"type\":\"meta\",\"schema\":99,\"dataset\":\"d\",\"query\":\"q\",\"config\":\"c\",\"threads\":1}").is_err());
        let ok = sample_profile().to_jsonl();
        let broken = ok.replace("\"recursions\"", "\"not_a_counter\"");
        assert!(RunProfile::parse_jsonl(&broken).is_err());
    }

    #[test]
    fn schema_1_profiles_are_rejected() {
        let v1 = sample_profile()
            .to_jsonl()
            .replace("\"schema\":2", "\"schema\":1");
        let err = RunProfile::parse_jsonl(&v1).unwrap_err();
        assert!(err.contains("unsupported schema 1"), "{err}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_200), "3.2µs");
        assert_eq!(fmt_ns(1_450_000), "1.45ms");
        assert_eq!(fmt_ns(2_310_000_000), "2.31s");
    }
}

//! The benchmark's own span recorder: one span around each call into a
//! layer, held in memory and written out when the workload ends.
//!
//! Spans are recorded only in the traced run; a disabled recorder costs
//! one branch per call site. Each client thread owns a [`SpanBuf`]; the
//! buffers are merged (ids re-based) after the threads join.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide span epoch.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share an identifier (0 = not a request).
    pub query_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span buffer with an open-span stack for parenting.
#[derive(Debug, Default)]
pub struct SpanBuf {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanBuf {
    pub fn new(enabled: bool) -> Self {
        SpanBuf {
            enabled,
            ..SpanBuf::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one. Returns a token for
    /// [`SpanBuf::close`]; `None` when recording is off.
    pub fn open(&mut self, name: &'static str, query_id: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query_id,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, token: Option<u32>) {
        let Some(id) = token else { return };
        self.spans[id as usize].end_ns = now_ns();
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Run `f` as one span; also returns its wall time in seconds
    /// (measured whether or not spans are recorded).
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        query_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let token = self.open(name, query_id);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(token);
        (out, secs)
    }

    /// Append another buffer's spans, re-basing their parent links; a
    /// root of `other` is adopted by this buffer's innermost open span.
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len() as u32;
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("query_id", Json::Num(s.query_id as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Per-span self time: its duration minus the part of that interval its
/// child spans cover (overlapping children — two client threads under
/// one pass — are unioned, not summed).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("query", 10, 40, Some(0)),
            // overlaps the first child by 10 ns: the union covers 10..60
            span("query", 30, 60, Some(0)),
            span("execute", 15, 35, Some(1)),
            // sticks out of its parent: only the inside part counts
            span("query", 90, 130, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 10);
        assert_eq!(st[1], 30 - 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 20);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("pass", 40));
        assert_eq!(by_name[1], ("query", 10 + 30 + 40));
    }

    #[test]
    fn open_close_nests_and_disabled_records_nothing() {
        let mut buf = SpanBuf::new(true);
        let outer = buf.open("outer", 7);
        buf.timed("inner", 7, || ());
        buf.close(outer);
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.spans()[1].parent, Some(0));
        assert!(buf.spans()[0].end_ns >= buf.spans()[1].end_ns);

        let mut off = SpanBuf::new(false);
        assert_eq!(off.timed("x", 1, || 5).0, 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_under_the_open_span() {
        let mut main = SpanBuf::new(true);
        let pass = main.open("pass", 0);
        let mut client = SpanBuf::new(true);
        let q = client.open("query", 1);
        client.timed("submit", 1, || ());
        client.close(q);
        main.absorb(client);
        main.close(pass);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}

//! Prometheus-style text exposition: render a snapshot of named,
//! labelled series to the classic `name{label="v"} value` line format,
//! and parse such text back into samples. The parser exists so CI can
//! prove the rendered output is machine-readable (render → parse →
//! compare), not just eyeballable.
//!
//! Histograms render as summaries — `{quantile="0.5"}` … series plus
//! `_sum`/`_count`/`_min`/`_max` — because log-linear buckets are this
//! library's internal scheme, while quantiles are what the serving-tier
//! tables actually consume.

use super::hist::HistSnapshot;

/// Instrument kind of a family: one name maps to exactly one kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic sum.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-linear distribution.
    Histogram,
}

/// Label set of one series, sorted by key, so it renders
/// deterministically.
pub type Labels = Vec<(String, String)>;

/// Snapshot value of one series.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(u64),
    /// Histogram distribution.
    Histogram(HistSnapshot),
}

/// One `(labels, value)` pair of a family snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// The series' label set, sorted by key.
    pub labels: Labels,
    /// The series' value at snapshot time.
    pub value: Value,
}

/// All series of one named instrument, at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnapshot {
    /// Instrument name (`snake_case`, no product prefix — the renderer
    /// adds one).
    pub name: String,
    /// Instrument kind shared by every series of the family.
    pub kind: Kind,
    /// Series ordered by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// Every metric name is exported under this prefix.
pub const PREFIX: &str = "sm_";

/// The quantiles every histogram exposes.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_hist(out: &mut String, name: &str, labels: &Labels, h: &HistSnapshot) {
    for (q, qs) in QUANTILES {
        out.push_str(&format!(
            "{name}{} {}\n",
            render_labels(labels, Some(("quantile", qs))),
            h.quantile(q)
        ));
    }
    let plain = render_labels(labels, None);
    out.push_str(&format!("{name}_sum{plain} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{plain} {}\n", h.count()));
    out.push_str(&format!("{name}_min{plain} {}\n", h.min()));
    out.push_str(&format!("{name}_max{plain} {}\n", h.max()));
}

/// Render family snapshots as Prometheus-style text.
pub fn render(families: &[FamilySnapshot]) -> String {
    let mut out = String::new();
    for f in families {
        let name = format!("{PREFIX}{}", f.name);
        let kind = match f.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "summary",
        };
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for s in &f.series {
            match &s.value {
                Value::Counter(v) | Value::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", render_labels(&s.labels, None)));
                }
                Value::Histogram(h) => render_hist(&mut out, &name, &s.labels, h),
            }
        }
    }
    out
}

/// One parsed exposition line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name, prefix included.
    pub name: String,
    /// Labels sorted by key.
    pub labels: Labels,
    /// The sample value.
    pub value: f64,
}

/// Parse Prometheus-style text back into samples. Comment and blank
/// lines are skipped; any other malformed line is an error naming the
/// line — this is the CI smoke's teeth.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_line(line).map_err(|e| format!("line {}: {e}: {line:?}", no + 1))?);
    }
    Ok(samples)
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing value".to_string())?;
    let value: f64 = value.parse().map_err(|_| "bad value".to_string())?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels = labels;
    labels.sort();
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Labels, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label missing '='".to_string())?;
        let key = rest[..eq].to_string();
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| "label value not quoted".to_string())?;
        // Find the closing quote, honoring backslash escapes.
        let mut val = String::new();
        let mut chars = after.char_indices();
        let close = loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| "unterminated label value".to_string())?;
            match c {
                '"' => break i,
                '\\' => match chars.next() {
                    Some((_, 'n')) => val.push('\n'),
                    Some((_, e)) => val.push(e),
                    None => return Err("dangling escape".to_string()),
                },
                c => val.push(c),
            }
        };
        labels.push((key, val));
        rest = &after[close + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn family(name: &str, kind: Kind, series: Vec<(&[(&str, &str)], Value)>) -> FamilySnapshot {
        FamilySnapshot {
            name: name.to_string(),
            kind,
            series: series
                .into_iter()
                .map(|(labels, value)| SeriesSnapshot {
                    labels: labels
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    value,
                })
                .collect(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 4000] {
            h.record(v);
        }
        let fams = [
            family(
                "queries_total",
                Kind::Counter,
                vec![
                    (&[("outcome", "complete")], Value::Counter(42)),
                    (&[("outcome", "rejected")], Value::Counter(3)),
                ],
            ),
            family(
                "shard_skew",
                Kind::Gauge,
                vec![(&[("shard", "0")], Value::Gauge(117))],
            ),
            family(
                "latency_ns",
                Kind::Histogram,
                vec![(&[("phase", "execute")], Value::Histogram(h.snapshot()))],
            ),
        ];
        let text = render(&fams);
        let samples = parse(&text).unwrap();
        // counters + gauge + (4 quantiles + sum/count/min/max)
        assert_eq!(samples.len(), 2 + 1 + 8);
        let get = |name: &str, labels: &[(&str, &str)]| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            == labels
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
                .value
        };
        assert_eq!(get("sm_queries_total", &[("outcome", "complete")]), 42.0);
        assert_eq!(get("sm_shard_skew", &[("shard", "0")]), 117.0);
        assert_eq!(get("sm_latency_ns_count", &[("phase", "execute")]), 4.0);
        assert_eq!(get("sm_latency_ns_sum", &[("phase", "execute")]), 4600.0);
        let p50 = get(
            "sm_latency_ns",
            &[("phase", "execute"), ("quantile", "0.5")],
        );
        assert!((p50 - 200.0).abs() / 200.0 <= 0.125, "p50={p50}");
    }

    #[test]
    fn escaped_label_values_survive() {
        let fams = [family(
            "odd",
            Kind::Counter,
            vec![(&[("q", "a\"b\\c\nd")], Value::Counter(1))],
        )];
        let samples = parse(&render(&fams)).unwrap();
        assert_eq!(
            samples[0].labels,
            vec![("q".to_string(), "a\"b\\c\nd".to_string())]
        );
    }

    #[test]
    fn type_lines_announce_families() {
        let fams = [
            family("a_total", Kind::Counter, vec![(&[], Value::Counter(1))]),
            family(
                "b_ns",
                Kind::Histogram,
                vec![(&[], Value::Histogram(Histogram::new().snapshot()))],
            ),
        ];
        let text = render(&fams);
        assert!(text.contains("# TYPE sm_a_total counter"));
        assert!(text.contains("# TYPE sm_b_ns summary"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("novalue").is_err());
        assert!(parse("x{unclosed 1").is_err());
        assert!(parse("x{k=unquoted} 1").is_err());
        assert!(parse("x 1\n\n# comment\ny 2").is_ok());
    }
}

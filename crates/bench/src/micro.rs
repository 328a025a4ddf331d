//! The timer-based micro-benchmark `experiments bench-fig10`: Figure 10's
//! set-intersection kernels on two fixed list pairs, isolated from the
//! engine. Each case is warmed up once and then sampled on
//! [`std::time::Instant`]; the table reports min / median / mean
//! wall-clock per iteration. The other figures' hot paths are timed by
//! the perf ledger's `intersect.*` / `graph.*` / `core.*` probes
//! (`benchmark/`), not here.

use crate::args::HarnessOptions;
use crate::table::{ms, TextTable};
use sm_intersect::{intersect_buf, BsrSet, IntersectKind};
use std::time::Instant;

/// Samples per case.
const SAMPLES: usize = 10;

/// A running micro-benchmark table: one row per [`MicroBench::case`].
pub struct MicroBench {
    samples: usize,
    table: TextTable,
}

impl MicroBench {
    /// Start a benchmark group; `title` is printed as a heading.
    pub fn new(title: &str) -> Self {
        println!("\n## {title}");
        MicroBench {
            samples: SAMPLES,
            table: TextTable::new(vec!["case", "min ms", "median ms", "mean ms", "samples"]),
        }
    }

    /// Time `f` (one warmup iteration, then `samples` measured ones) and
    /// append a row.
    pub fn case(&mut self, label: &str, mut f: impl FnMut()) {
        f(); // warmup: touch caches, fault in lazily-loaded data
        let mut times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.table.row(vec![
            label.to_string(),
            ms(min),
            ms(median),
            ms(mean),
            self.samples.to_string(),
        ]);
    }

    /// Print the accumulated table.
    pub fn finish(self) {
        self.table.print();
    }
}

/// Figure 10: raw set-intersection kernels, dense vs sparse regimes.
pub fn bench_fig10(_opts: &HarnessOptions) {
    // consecutive runs: BSR blocks are nearly full
    let dense = (
        (0..8000u32).filter(|x| x % 4 != 3).collect::<Vec<u32>>(),
        (0..8000u32).filter(|x| x % 3 != 2).collect::<Vec<u32>>(),
    );
    // far-apart elements: one bit per BSR block
    let sparse = (
        (0..3000u32).map(|x| x * 97).collect::<Vec<u32>>(),
        (0..3000u32).map(|x| x * 101).collect::<Vec<u32>>(),
    );
    let mut bench = MicroBench::new("bench-fig10: intersection kernels");
    for (regime, (a, b)) in [("dense", dense), ("sparse", sparse)] {
        for kind in [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
        ] {
            let mut out = Vec::with_capacity(a.len());
            bench.case(&format!("{}/{}", regime, kind.name()), || {
                out.clear();
                intersect_buf(kind, &a, &b, &mut out);
                std::hint::black_box(out.len());
            });
        }
        // QFilter-style with precomputed encodings (how the engine uses it).
        let ba = BsrSet::from_sorted(&a);
        let bb = BsrSet::from_sorted(&b);
        let mut out = BsrSet::default();
        bench.case(&format!("{regime}/QFilter"), || {
            ba.intersect_into(&bb, &mut out);
            std::hint::black_box(out.len());
        });
    }
    bench.finish();
}

//! Cross-run feedback: per-canonical-form, per-combo observations.
//!
//! Completed (and bailed) runs fold their trace counters back into this
//! store; the next time the same canonical query form arrives, the
//! planner ranks measured costs above modeled ones. The store serializes
//! to a flat little-endian byte image so the durable layer can carry it
//! through snapshots, and merges images so a sharded deployment shares
//! one learned state across shards and restarts.

use crate::combo::PlanCombo;
use std::collections::HashMap;
use std::sync::Mutex;

/// EMA smoothing: weight of the newest observation.
const ALPHA: f64 = 0.4;

/// Aggregated observations for one combo under one canonical form.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComboFeedback {
    /// Exponential moving average of end-to-end cost (ns).
    pub ema_ns: f64,
    /// Exponential moving average of backtracks.
    pub ema_backtracks: f64,
    /// Runs folded in.
    pub runs: u64,
    /// Runs that were bailed out by the jump-redo monitor (their cost is
    /// a lower bound, so the planner treats them as evidence *against*
    /// the combo rather than a measurement).
    pub bailed_runs: u64,
}

impl ComboFeedback {
    fn fold(&mut self, ns: f64, backtracks: f64, bailed: bool) {
        if self.runs == 0 {
            self.ema_ns = ns;
            self.ema_backtracks = backtracks;
        } else {
            self.ema_ns = (1.0 - ALPHA) * self.ema_ns + ALPHA * ns;
            self.ema_backtracks = (1.0 - ALPHA) * self.ema_backtracks + ALPHA * backtracks;
        }
        self.runs += 1;
        self.bailed_runs += bailed as u64;
    }

    fn merge(&mut self, other: &ComboFeedback) {
        if other.runs == 0 {
            return;
        }
        if self.runs == 0 {
            *self = *other;
            return;
        }
        let (a, b) = (self.runs as f64, other.runs as f64);
        self.ema_ns = (self.ema_ns * a + other.ema_ns * b) / (a + b);
        self.ema_backtracks = (self.ema_backtracks * a + other.ema_backtracks * b) / (a + b);
        self.runs += other.runs;
        self.bailed_runs += other.bailed_runs;
    }
}

/// One run's observation, as reported by whoever executed the plan.
#[derive(Clone, Copy, Debug)]
pub struct ObservedRun {
    /// The combo that ran.
    pub combo: PlanCombo,
    /// End-to-end cost: plan compile + enumeration (ns).
    pub total_ns: u64,
    /// Enumeration-phase cost (ns).
    pub enum_ns: u64,
    /// Search-tree nodes visited.
    pub recursions: u64,
    /// Backtracks performed.
    pub backtracks: u64,
    /// Whether the run enumerated to completion (vs cap/deadline).
    pub completed: bool,
    /// Whether the jump-redo monitor cancelled the run.
    pub bailed: bool,
}

/// Thread-safe feedback store keyed by canonical-form hash.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    forms: Mutex<HashMap<u64, HashMap<u16, ComboFeedback>>>,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Fold one observation in.
    pub fn record(&self, canon: u64, obs: &ObservedRun) {
        let mut forms = self.forms.lock().unwrap();
        forms
            .entry(canon)
            .or_default()
            .entry(obs.combo.id())
            .or_default()
            .fold(obs.total_ns as f64, obs.backtracks as f64, obs.bailed);
    }

    /// Observations for `(canon, combo)`, if any run has been recorded.
    pub fn observed(&self, canon: u64, combo: PlanCombo) -> Option<ComboFeedback> {
        let forms = self.forms.lock().unwrap();
        forms.get(&canon)?.get(&combo.id()).copied()
    }

    /// Number of canonical forms with at least one observation.
    pub fn forms(&self) -> usize {
        self.forms.lock().unwrap().len()
    }

    /// Serialize to a flat little-endian image:
    /// `[form_count u64] ( [canon u64] [combo_count u64] ( [id u16]
    /// [runs u64] [bailed u64] [ema_ns f64] [ema_bt f64] )* )*`.
    /// Iteration order is sorted so equal stores produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let forms = self.forms.lock().unwrap();
        let mut out = Vec::with_capacity(16 + forms.len() * 64);
        out.extend_from_slice(&(forms.len() as u64).to_le_bytes());
        let mut canons: Vec<_> = forms.keys().copied().collect();
        canons.sort_unstable();
        for canon in canons {
            let combos = &forms[&canon];
            out.extend_from_slice(&canon.to_le_bytes());
            out.extend_from_slice(&(combos.len() as u64).to_le_bytes());
            let mut ids: Vec<_> = combos.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let fb = &combos[&id];
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&fb.runs.to_le_bytes());
                out.extend_from_slice(&fb.bailed_runs.to_le_bytes());
                out.extend_from_slice(&fb.ema_ns.to_le_bytes());
                out.extend_from_slice(&fb.ema_backtracks.to_le_bytes());
            }
        }
        out
    }

    /// Merge a serialized image into this store (run-count-weighted).
    /// Returns the number of canonical forms merged, or an error on a
    /// malformed image.
    pub fn merge_bytes(&self, bytes: &[u8]) -> Result<usize, &'static str> {
        let mut at = 0usize;
        let u64_at = |buf: &[u8], at: &mut usize| -> Result<u64, &'static str> {
            let end = at.checked_add(8).ok_or("feedback image truncated")?;
            let s = buf.get(*at..end).ok_or("feedback image truncated")?;
            *at = end;
            Ok(u64::from_le_bytes(s.try_into().unwrap()))
        };
        let form_count = u64_at(bytes, &mut at)?;
        let mut forms = self.forms.lock().unwrap();
        for _ in 0..form_count {
            let canon = u64_at(bytes, &mut at)?;
            let combo_count = u64_at(bytes, &mut at)?;
            if combo_count > 168 {
                return Err("feedback image corrupt: combo count out of range");
            }
            let entry = forms.entry(canon).or_default();
            for _ in 0..combo_count {
                let id_bytes = bytes.get(at..at + 2).ok_or("feedback image truncated")?;
                at += 2;
                let id = u16::from_le_bytes(id_bytes.try_into().unwrap());
                let runs = u64_at(bytes, &mut at)?;
                let bailed_runs = u64_at(bytes, &mut at)?;
                let ema_ns = f64::from_le_bytes(
                    bytes
                        .get(at..at + 8)
                        .ok_or("feedback image truncated")?
                        .try_into()
                        .unwrap(),
                );
                at += 8;
                let ema_backtracks = f64::from_le_bytes(
                    bytes
                        .get(at..at + 8)
                        .ok_or("feedback image truncated")?
                        .try_into()
                        .unwrap(),
                );
                at += 8;
                if !ema_ns.is_finite() || !ema_backtracks.is_finite() {
                    return Err("feedback image corrupt: non-finite EMA");
                }
                entry.entry(id).or_default().merge(&ComboFeedback {
                    ema_ns,
                    ema_backtracks,
                    runs,
                    bailed_runs,
                });
            }
        }
        if at != bytes.len() {
            return Err("feedback image has trailing bytes");
        }
        Ok(form_count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(combo: PlanCombo, ns: u64, bt: u64) -> ObservedRun {
        ObservedRun {
            combo,
            total_ns: ns,
            enum_ns: ns,
            recursions: bt + 1,
            backtracks: bt,
            completed: true,
            bailed: false,
        }
    }

    #[test]
    fn record_then_observe_uses_ema() {
        let store = FeedbackStore::new();
        let combo = PlanCombo::from_id(0).unwrap();
        store.record(7, &obs(combo, 1_000, 100));
        let fb = store.observed(7, combo).unwrap();
        assert_eq!(fb.runs, 1);
        assert!((fb.ema_ns - 1_000.0).abs() < 1e-9);
        store.record(7, &obs(combo, 2_000, 200));
        let fb = store.observed(7, combo).unwrap();
        assert_eq!(fb.runs, 2);
        assert!(fb.ema_ns > 1_000.0 && fb.ema_ns < 2_000.0);
        assert!(store.observed(8, combo).is_none());
    }

    #[test]
    fn bytes_roundtrip_and_merge() {
        let a = FeedbackStore::new();
        let c0 = PlanCombo::from_id(0).unwrap();
        let c5 = PlanCombo::from_id(5).unwrap();
        a.record(1, &obs(c0, 1_000, 10));
        a.record(2, &obs(c5, 3_000, 30));
        let img = a.to_bytes();

        let b = FeedbackStore::new();
        b.record(1, &obs(c0, 9_000, 90));
        assert_eq!(b.merge_bytes(&img).unwrap(), 2);
        assert_eq!(b.forms(), 2);
        let fb = b.observed(1, c0).unwrap();
        assert_eq!(fb.runs, 2);
        // run-count-weighted mean of 9000 and 1000
        assert!((fb.ema_ns - 5_000.0).abs() < 1e-6);
        assert_eq!(b.observed(2, c5).unwrap().runs, 1);

        // deterministic serialization
        assert_eq!(a.to_bytes(), a.to_bytes());
    }

    #[test]
    fn merge_rejects_malformed_images() {
        let store = FeedbackStore::new();
        assert!(store.merge_bytes(&[1, 2, 3]).is_err());
        let mut img = FeedbackStore::new().to_bytes();
        img.push(0);
        assert!(store.merge_bytes(&img).is_err());
        // claim one form but truncate the body
        let mut img = Vec::new();
        img.extend_from_slice(&1u64.to_le_bytes());
        img.extend_from_slice(&42u64.to_le_bytes());
        assert!(store.merge_bytes(&img).is_err());
    }
}
